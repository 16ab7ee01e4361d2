(* Tests for Dfm_util.Journal, the shared append-only record log: loading
   is total and exact under truncation at every offset and under any
   single-byte flip, recovery leaves a file that reloads clean, and a file
   of another owner or version (wrong magic) starts over. *)

module Journal = Dfm_util.Journal

let magic = "DFMTS01\n"

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_path f =
  let path = Filename.temp_file "dfm_journal" ".bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let image payloads = String.concat "" (magic :: List.map Journal.encode payloads)

let gen_payloads =
  QCheck.(list_of_size Gen.(1 -- 6) (string_gen_of_size Gen.(1 -- 40) Gen.char))

(* Byte offset at which each record ends, in file order. *)
let record_ends payloads =
  List.rev
    (snd
       (List.fold_left
          (fun (off, acc) p ->
            let e = off + String.length p + Journal.overhead in
            (e, e :: acc))
          (String.length magic, [])
          payloads))

let prop_cut_every_offset =
  QCheck.Test.make ~name:"a cut file loads exactly the records wholly before the cut"
    ~count:60 gen_payloads (fun payloads ->
      with_path @@ fun path ->
      let img = image payloads in
      let ends = record_ends payloads in
      let ok = ref true in
      for cut = 0 to String.length img do
        write_file path (String.sub img 0 cut);
        let l = Journal.load ~magic path in
        let whole = List.filteri (fun i _ -> List.nth ends i <= cut) payloads in
        let at_boundary = cut = 0 || cut = String.length magic || List.mem cut ends in
        ok :=
          !ok
          && List.equal String.equal l.Journal.records whole
          && l.Journal.prefix = List.length whole
          && l.Journal.dropped = if at_boundary then 0 else 1
      done;
      !ok)

(* Which byte range of the image a position falls in. *)
let region payloads pos =
  if pos < String.length magic then `Magic
  else
    let rec find i start = function
      | [] -> assert false
      | p :: rest ->
          let len = String.length p in
          if pos < start + 4 then `Length i
          else if pos < start + len + Journal.overhead then `Body i
          else find (i + 1) (start + len + Journal.overhead) rest
    in
    find 0 (String.length magic) payloads

(* [sub] is a subsequence of [l]. *)
let rec subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' -> if String.equal x y then subsequence sub' l' else subsequence sub l'

let prop_single_byte_flip =
  QCheck.Test.make ~name:"a single flipped byte never invents a record and loses at most its own"
    ~count:60
    QCheck.(pair gen_payloads (int_range 1 255))
    (fun (payloads, mask) ->
      with_path @@ fun path ->
      let img = image payloads in
      let ok = ref true in
      for pos = 0 to String.length img - 1 do
        let b = Bytes.of_string img in
        Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor mask);
        write_file path (Bytes.to_string b);
        let l = Journal.load ~magic path in
        let expected =
          match region payloads pos with
          | `Magic -> l.Journal.records = [] && l.Journal.dropped = 1
          | `Length i ->
              (* the framing is lost from here on: whatever loads is genuine
                 and the records before the flip survive *)
              subsequence l.Journal.records payloads
              && l.Journal.prefix >= i
              && List.filteri (fun j _ -> j < i) l.Journal.records
                 = List.filteri (fun j _ -> j < i) payloads
          | `Body i ->
              List.equal String.equal l.Journal.records
                (List.filteri (fun j _ -> j <> i) payloads)
              && l.Journal.prefix = i && l.Journal.dropped = 1
        in
        ok := !ok && expected
      done;
      !ok)

let prop_recovery_then_append_is_clean =
  QCheck.Test.make ~name:"after recovery the first append leaves a file that reloads clean"
    ~count:100
    QCheck.(triple gen_payloads small_nat (pair bool (int_range 1 255)))
    (fun (payloads, pos_seed, (cut, mask)) ->
      with_path @@ fun path ->
      let img = image payloads in
      let pos = String.length magic + (pos_seed mod (String.length img - String.length magic)) in
      let damaged =
        if cut then String.sub img 0 pos
        else begin
          let b = Bytes.of_string img in
          Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor mask);
          Bytes.to_string b
        end
      in
      write_file path damaged;
      let l = Journal.load ~magic path in
      let j = Journal.open_ ~magic ~keep:l.Journal.records l path in
      Journal.append j "after recovery";
      Journal.close j;
      let l2 = Journal.load ~magic path in
      l2.Journal.clean && l2.Journal.dropped = 0
      && List.equal String.equal l2.Journal.records (l.Journal.records @ [ "after recovery" ]))

let test_wrong_magic_starts_fresh () =
  List.iter
    (fun old ->
      with_path @@ fun path ->
      write_file path (old ^ Journal.encode "a record of another version");
      let l = Journal.load ~magic path in
      Alcotest.(check (list string)) (old ^ " loads empty") [] l.Journal.records;
      Alcotest.(check int) (old ^ " counts as one drop") 1 l.Journal.dropped;
      Journal.close (Journal.open_ ~magic ~keep:[] l path);
      Alcotest.(check string) (old ^ " rewritten to the new magic") magic (read_file path))
    [ "DFMCK02\n"; "DFMVC01\n"; "DFS1" ]

let test_clean_file_not_rewritten () =
  with_path @@ fun path ->
  write_file path (image [ "one"; "two" ]);
  let before = Unix.stat path in
  let l = Journal.load ~magic path in
  Alcotest.(check bool) "loads clean" true l.Journal.clean;
  let j = Journal.open_ ~magic ~keep:l.Journal.records l path in
  Journal.close j;
  Alcotest.(check int) "same inode: appended in place, not rewritten" before.Unix.st_ino
    (Unix.stat path).Unix.st_ino

let suite =
  [
    QCheck_alcotest.to_alcotest prop_cut_every_offset;
    QCheck_alcotest.to_alcotest prop_single_byte_flip;
    QCheck_alcotest.to_alcotest prop_recovery_then_append_is_clean;
    Alcotest.test_case "wrong magic starts fresh" `Quick test_wrong_magic_starts_fresh;
    Alcotest.test_case "clean file is not rewritten" `Quick test_clean_file_not_rewritten;
  ]
