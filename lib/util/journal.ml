let max_record = 64 * 1024 * 1024
let overhead = 12

let checksum payload = Hash64.mix (Hash64.of_string payload) (Hash64.of_int (String.length payload))

let encode payload =
  let len = String.length payload in
  if len < 1 || len > max_record then invalid_arg "Journal.encode: payload length out of range";
  let b = Bytes.create (len + overhead) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  Bytes.set_int64_le b (4 + len) (checksum payload);
  Bytes.unsafe_to_string b

type decoded = Record of string * int | Short | Bad_length of int | Bad_checksum of int

let decode s off =
  let avail = String.length s - off in
  if avail < 4 then Short
  else
    let len = Int32.to_int (String.get_int32_le s off) land 0xffff_ffff in
    if len < 1 || len > max_record then Bad_length len
    else if avail < len + overhead then Short
    else
      let payload = String.sub s (off + 4) len in
      let next = off + len + overhead in
      if Int64.equal (String.get_int64_le s (off + 4 + len)) (checksum payload) then
        Record (payload, next)
      else Bad_checksum next

type loaded = { records : string list; prefix : int; dropped : int; clean : bool }

let load ~magic path =
  let empty = { records = []; prefix = 0; dropped = 0; clean = false } in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> empty
  | "" -> empty
  | s when not (String.starts_with ~prefix:magic s) -> { empty with dropped = 1 }
  | s ->
      let records = ref [] and n = ref 0 and prefix = ref None and dropped = ref 0 in
      let damaged () =
        if !prefix = None then prefix := Some !n;
        incr dropped
      in
      let rec scan off =
        if off < String.length s then
          match decode s off with
          | Record (p, next) ->
              records := p :: !records;
              incr n;
              scan next
          | Bad_checksum next ->
              damaged ();
              scan next
          | Short | Bad_length _ -> damaged ()
      in
      scan (String.length magic);
      {
        records = List.rev !records;
        prefix = Option.value !prefix ~default:!n;
        dropped = !dropped;
        clean = !dropped = 0;
      }

let intact_prefix l = List.filteri (fun i _ -> i < l.prefix) l.records

type t = { oc : out_channel; sites : string list }

let open_ ?(sites = []) ~magic ~keep l path =
  if not (l.clean && List.equal String.equal keep l.records) then
    Dfm_obs.Export.write_atomic path (String.concat "" (magic :: List.map encode keep));
  { oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path; sites }

let append t payload =
  let r = encode payload in
  List.iter (fun site -> Failpoint.guard_write site ~write:(output_substring t.oc) r) t.sites;
  output_string t.oc r

let flush t = Stdlib.flush t.oc
let close t = close_out_noerr t.oc
