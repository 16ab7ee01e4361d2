module Failpoint = Dfm_util.Failpoint
module Journal = Dfm_util.Journal

let magic = "DFS1"

let max_payload = Journal.max_record

let encode payload = magic ^ Journal.encode payload

let write_all fd s pos len =
  let pos = ref pos and len = ref len in
  while !len > 0 do
    let n = Unix.write_substring fd s !pos !len in
    pos := !pos + n;
    len := !len - n
  done

(* The [serve.conn] site: a dropped connection is an [Io_error]; a torn
   frame is a [Partial_write], so the peer's decoder sees exactly what a
   connection dying mid-send leaves behind. *)
let write fd payload =
  let frame = encode payload in
  Failpoint.guard_write "serve.conn" ~write:(write_all fd) frame;
  write_all fd frame 0 (String.length frame)

(* ------------------------------------------------------------------ *)
(* Incremental decoder                                                  *)
(* ------------------------------------------------------------------ *)

module Decoder = struct
  type t = {
    buf : Buffer.t;
    mutable consumed : int; (* prefix of [buf] already turned into frames *)
    mutable failed : string option;
  }

  let create () = { buf = Buffer.create 4096; consumed = 0; failed = None }

  let buffered t = Buffer.length t.buf - t.consumed

  let feed t bytes n =
    match t.failed with
    | Some _ -> () (* fail closed: a poisoned connection accepts nothing *)
    | None -> Buffer.add_subbytes t.buf bytes 0 n

  (* Compact once the consumed prefix dominates, so a long-lived
     connection does not grow its buffer without bound. *)
  let compact t =
    if t.consumed > 65536 && t.consumed * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.consumed (buffered t) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.consumed <- 0
    end

  let fail t msg =
    t.failed <- Some msg;
    Buffer.clear t.buf;
    t.consumed <- 0;
    Error msg

  let next t =
    match t.failed with
    | Some msg -> Error msg
    | None ->
        if buffered t < String.length magic then Ok None
        else begin
          let contents = Buffer.contents t.buf in
          let off = t.consumed in
          if String.sub contents off (String.length magic) <> magic then
            fail t "protocol error: bad frame magic"
          else
            match Journal.decode contents (off + String.length magic) with
            | Journal.Short -> Ok None
            | Journal.Bad_length len ->
                fail t (Printf.sprintf "protocol error: bad frame length %d" len)
            | Journal.Bad_checksum _ -> fail t "protocol error: frame checksum mismatch"
            | Journal.Record (payload, next) ->
                t.consumed <- next;
                compact t;
                Ok (Some payload)
        end
end

(* Blocking next-frame read for the synchronous client; the decoder is
   per-connection so bytes past the returned frame survive the call. *)
let read dec fd =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Decoder.next dec with
    | Error e -> Error e
    | Ok (Some payload) -> Ok payload
    | Ok None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if Decoder.buffered dec = 0 then Error "connection closed"
            else Error "connection closed mid-frame"
        | n ->
            Decoder.feed dec chunk n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()
