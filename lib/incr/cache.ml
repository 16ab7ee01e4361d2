
type t = { store : Store.t; mutable last_sweep : Signature.sweep option }

let cache_file = "verdicts.bin"

let create ?dir ?log () =
  let path =
    Option.map
      (fun dir ->
        (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Filename.concat dir cache_file)
      dir
  in
  { store = Store.create ?path ?log (); last_sweep = None }

let sweep_for t nl =
  match t.last_sweep with
  | Some sw when Signature.netlist sw == nl -> sw
  | _ ->
      let sw = Signature.sweep nl in
      t.last_sweep <- Some sw;
      sw

let signatures t ?max_conflicts nl faults =
  let sw = sweep_for t nl in
  let params = Signature.default_params ?max_conflicts () in
  Array.map (Signature.of_fault sw ~params) faults

let find t sg = Store.find t.store sg

let find_certified t sg = Store.find_certified t.store sg

let record ?certified t sg v = Store.add ?certified t.store sg v

let stats t = Store.stats t.store

let hit_rate t = Store.hit_rate t.store

let close t = Store.close t.store
