type t = Store.t

let create ?dir ?log () =
  let path =
    Option.map
      (fun dir ->
        (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Filename.concat dir "verdicts.bin")
      dir
  in
  Store.create ?path ?log ()

let signatures ?max_conflicts nl faults =
  let sw = Signature.sweep nl in
  let params = Signature.default_params ?max_conflicts () in
  Array.map (Signature.of_fault sw ~params) faults

let find = Store.find
let find_certified = Store.find_certified
let record = Store.add
let stats = Store.stats
let hit_rate = Store.hit_rate
let close = Store.close
