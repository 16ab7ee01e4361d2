(* The serve subsystem's pure layers: the hand-written JSON codec, the
   length-framed checksummed frame protocol (including the fuzz suite that
   backs the fail-closed guarantee), the typed request/response codec, the
   fair-share scheduler, and the [serve.conn] failpoint through a real
   socketpair; and what an in-process daemon keeps per finished job.  The
   daemon end-to-end paths (determinism, multi-tenant cache sharing,
   kill -9 resilience) live in [serve_smoke.ml], which drives the CLI
   executable. *)

module Wire = Dfm_serve.Wire
module Frame = Dfm_serve.Frame
module Protocol = Dfm_serve.Protocol
module Scheduler = Dfm_serve.Scheduler
module Failpoint = Dfm_util.Failpoint

(* ------------------------------------------------------------------ *)
(* Wire: JSON printer/parser                                          *)
(* ------------------------------------------------------------------ *)

let wire = Alcotest.testable (fun ppf v -> Fmt.string ppf (Wire.to_string v)) Wire.equal

let roundtrip v =
  match Wire.parse (Wire.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "reparse failed: %s on %s" e (Wire.to_string v)

let test_wire_roundtrip () =
  let v =
    Wire.Obj
      [
        ("s", Wire.String "a\"b\\c\n\t\x01d");
        ("i", Wire.Int (-42));
        ("f", Wire.Float 1.5);
        ("b", Wire.Bool true);
        ("n", Wire.Null);
        ("l", Wire.List [ Wire.Int 0; Wire.String ""; Wire.Obj [] ]);
      ]
  in
  Alcotest.check wire "roundtrip" v (roundtrip v);
  (* the printer is deterministic: print/parse/print is a fixpoint *)
  Alcotest.(check string)
    "print is a fixpoint" (Wire.to_string v)
    (Wire.to_string (roundtrip v))

let test_wire_numbers () =
  Alcotest.check wire "big int exact" (Wire.Int max_int) (roundtrip (Wire.Int max_int));
  Alcotest.check wire "min int exact" (Wire.Int min_int) (roundtrip (Wire.Int min_int));
  (* non-finite floats cannot travel in JSON; the printer degrades to null *)
  Alcotest.(check string) "nan prints null" "null" (Wire.to_string (Wire.Float Float.nan));
  Alcotest.(check string)
    "inf prints null" "null"
    (Wire.to_string (Wire.Float Float.infinity));
  match Wire.parse "0.25" with
  | Ok (Wire.Float f) -> Alcotest.(check (float 0.0)) "float value" 0.25 f
  | _ -> Alcotest.fail "0.25 should parse as a float"

let test_wire_unicode_escape () =
  (match Wire.parse {|"\u00e9A"|} with
  | Ok (Wire.String s) -> Alcotest.(check string) "utf-8 decoding" "\xc3\xa9A" s
  | _ -> Alcotest.fail "unicode escapes should parse");
  match Wire.parse {|"\q"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown escape must be rejected"

let test_wire_rejects () =
  let bad s =
    match Wire.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse should reject %S" s
  in
  bad "";
  bad "{\"a\":1,}";
  bad "[1 2]";
  bad "tru";
  bad "\"unterminated";
  bad "{\"a\":1} trailing";
  (* nesting past max_depth fails instead of overflowing the stack *)
  bad (String.make 100 '[' ^ String.make 100 ']')

let test_wire_accessors () =
  let v = Wire.Obj [ ("a", Wire.Int 3); ("b", Wire.String "x") ] in
  Alcotest.(check (option int)) "int_field" (Some 3) (Wire.int_field "a" v);
  (* the documented contract: missing and mistyped are indistinguishable
     (protocol decoding that must tell them apart does its own member
     lookup) *)
  Alcotest.(check (option int)) "missing none" None (Wire.int_field "zz" v);
  Alcotest.(check (option int)) "mistyped none" None (Wire.int_field "b" v);
  Alcotest.(check (option string)) "str_field" (Some "x") (Wire.str_field "b" v);
  Alcotest.(check (option (float 0.0))) "int promotes to float" (Some 3.0)
    (Wire.float_field "a" v)

(* Random JSON documents roundtrip bit-exactly through print/parse. *)
let wire_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Wire.Null;
        map (fun b -> Wire.Bool b) bool;
        map (fun i -> Wire.Int i) small_signed_int;
        map (fun f -> Wire.Float f) (float_bound_inclusive 1000.0);
        map (fun s -> Wire.String s) (string_size ~gen:(char_range '\x00' '\xff') (0 -- 12));
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            (1, map (fun l -> Wire.List l) (list_size (0 -- 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Wire.Obj kvs)
                (list_size (0 -- 4)
                   (pair (string_size ~gen:printable (0 -- 6)) (self (n / 2)))) );
          ])

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire print/parse roundtrip" ~count:300
    (QCheck.make ~print:Wire.to_string wire_gen) (fun v ->
      match Wire.parse (Wire.to_string v) with
      | Ok v' -> Wire.equal v v'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Frame: encode / incremental decode                                 *)
(* ------------------------------------------------------------------ *)

let feed_all dec s =
  Frame.Decoder.feed dec (Bytes.of_string s) (String.length s)

let expect_payload dec expected =
  match Frame.Decoder.next dec with
  | Ok (Some p) -> Alcotest.(check string) "payload" expected p
  | Ok None -> Alcotest.fail "decoder wanted more bytes"
  | Error e -> Alcotest.failf "decoder error: %s" e

let test_frame_roundtrip () =
  let dec = Frame.Decoder.create () in
  feed_all dec (Frame.encode "hello");
  expect_payload dec "hello";
  (* two frames in one buffer come out in order *)
  feed_all dec (Frame.encode "a" ^ Frame.encode "b");
  expect_payload dec "a";
  expect_payload dec "b";
  Alcotest.(check int) "drained" 0 (Frame.Decoder.buffered dec)

let test_frame_byte_at_a_time () =
  let frame = Frame.encode "byte by byte \x00\xff payload" in
  let dec = Frame.Decoder.create () in
  String.iter
    (fun c ->
      (match Frame.Decoder.next dec with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "payload before final byte"
      | Error e -> Alcotest.failf "decoder error mid-frame: %s" e);
      Frame.Decoder.feed dec (Bytes.make 1 c) 1)
    frame;
  expect_payload dec "byte by byte \x00\xff payload"

(* Torn-write matrix: a frame cut at EVERY byte boundary is incomplete —
   never an error, never a bogus payload — and completes once the tail
   arrives.  This is the decoder half of the [serve.conn] Partial_write
   story: whatever prefix a dying connection managed to push, the peer
   either waits or (on close) reports a mid-frame cut; it never acts on a
   torn message. *)
let test_frame_cut_matrix () =
  let frame = Frame.encode "torn-write matrix payload" in
  for cut = 0 to String.length frame - 1 do
    let dec = Frame.Decoder.create () in
    feed_all dec (String.sub frame 0 cut);
    (match Frame.Decoder.next dec with
    | Ok None -> ()
    | Ok (Some _) -> Alcotest.failf "payload from a %d-byte prefix" cut
    | Error e -> Alcotest.failf "error from a %d-byte prefix: %s" cut e);
    feed_all dec (String.sub frame cut (String.length frame - cut));
    expect_payload dec "torn-write matrix payload"
  done

let expect_error dec what =
  match Frame.Decoder.next dec with
  | Error _ -> ()
  | Ok None -> Alcotest.failf "%s: decoder wants more instead of failing" what
  | Ok (Some _) -> Alcotest.failf "%s: decoder produced a payload" what

let test_frame_bad_magic () =
  let dec = Frame.Decoder.create () in
  feed_all dec ("XXXX" ^ String.sub (Frame.encode "p") 4 (String.length (Frame.encode "p") - 4));
  expect_error dec "bad magic";
  (* the error latches: even a valid frame afterwards is refused *)
  feed_all dec (Frame.encode "valid");
  expect_error dec "latched";
  Alcotest.(check int) "latched decoder discards input" 0 (Frame.Decoder.buffered dec)

let test_frame_bad_checksum () =
  let frame = Bytes.of_string (Frame.encode "checksummed") in
  let last = Bytes.length frame - 1 in
  Bytes.set frame last (Char.chr (Char.code (Bytes.get frame last) lxor 1));
  let dec = Frame.Decoder.create () in
  Frame.Decoder.feed dec frame (Bytes.length frame);
  expect_error dec "corrupted checksum"

let test_frame_bad_length () =
  (* length fields of 0 and > max_payload both fail closed *)
  let mk len =
    let b = Buffer.create 16 in
    Buffer.add_string b "DFS1";
    for i = 0 to 3 do
      Buffer.add_char b (Char.chr ((len lsr (8 * i)) land 0xff))
    done;
    Buffer.contents b
  in
  let dec = Frame.Decoder.create () in
  feed_all dec (mk 0);
  expect_error dec "zero length";
  let dec = Frame.Decoder.create () in
  feed_all dec (mk (Frame.max_payload + 1));
  expect_error dec "oversized length"

let test_frame_encode_rejects () =
  (match Frame.encode "" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty payload must be rejected");
  match Frame.encode (String.make 1 'x') with
  | (_ : string) -> ()

(* Garbage in, no crash out: random byte strings fed in random chunkings
   never raise, and never produce a payload unless they embed a frame we
   wrote ourselves (they don't: matching magic + checksum by chance is a
   2^-64 event).  The daemon's per-connection fail-closed behavior rests
   on exactly this. *)
let prop_frame_fuzz_garbage =
  QCheck.Test.make ~name:"frame decoder survives arbitrary garbage" ~count:500
    QCheck.(
      pair
        (string_gen_of_size Gen.(1 -- 200) Gen.(char_range '\x00' '\xff'))
        (small_int_corners ()))
    (fun (garbage, chunk_seed) ->
      let dec = Frame.Decoder.create () in
      let chunk = 1 + (abs chunk_seed mod 7) in
      let pos = ref 0 in
      let ok = ref true in
      while !ok && !pos < String.length garbage do
        let n = min chunk (String.length garbage - !pos) in
        Frame.Decoder.feed dec (Bytes.of_string (String.sub garbage !pos n)) n;
        pos := !pos + n;
        match Frame.Decoder.next dec with
        | Ok None | Error _ -> ()
        | Ok (Some _) -> ok := false
      done;
      !ok)

(* Single-byte corruption of a valid frame never yields the original
   payload: it is caught by magic, length, or checksum — or leaves the
   decoder waiting for bytes that never come. *)
let prop_frame_fuzz_flip =
  QCheck.Test.make ~name:"frame decoder rejects single-byte corruption" ~count:300
    QCheck.(
      pair (string_gen_of_size Gen.(1 -- 50) Gen.printable) (pair small_nat small_nat))
    (fun (payload, (pos_seed, bit_seed)) ->
      let frame = Bytes.of_string (Frame.encode payload) in
      let pos = pos_seed mod Bytes.length frame in
      let bit = 1 lsl (bit_seed mod 8) in
      Bytes.set frame pos (Char.chr (Char.code (Bytes.get frame pos) lxor bit));
      let dec = Frame.Decoder.create () in
      Frame.Decoder.feed dec frame (Bytes.length frame);
      match Frame.Decoder.next dec with
      | Ok (Some p) -> not (String.equal p payload)
      | Ok None | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Protocol: typed request/response codec                             *)
(* ------------------------------------------------------------------ *)

let submit_full =
  Protocol.
    {
      client = "tenant-a";
      kind = Resynth;
      name = "blk";
      netlist = "# netlist\ntext\n";
      limits = { jobs = Some 4; max_conflicts = Some 10_000; max_seconds = Some 2.5 };
      static_filter = true;
      sat_mode = Some "oneshot";
      q_max = Some 7;
      p1 = Some 0.5;
    }

let submit_min =
  Protocol.
    {
      client = "t";
      kind = Analyze;
      name = "n";
      netlist = "x";
      limits = Protocol.no_limits;
      static_filter = false;
      sat_mode = None;
      q_max = None;
      p1 = None;
    }

let req_roundtrip r =
  match Protocol.request_of_json (Protocol.request_to_json r) with
  | Ok r' -> Alcotest.(check bool) "request roundtrip" true (r = r')
  | Error e -> Alcotest.failf "request reparse: %s" e

let resp_roundtrip r =
  match Protocol.response_of_json (Protocol.response_to_json r) with
  | Ok r' -> Alcotest.(check bool) "response roundtrip" true (r = r')
  | Error e -> Alcotest.failf "response reparse: %s" e

let test_protocol_requests () =
  List.iter req_roundtrip
    Protocol.
      [
        Submit submit_full;
        Submit submit_min;
        Status None;
        Status (Some "J3");
        Await "J1";
        Cancel "J2";
        Drain;
        Metrics;
        Telemetry_sub
          { t_spans = true; t_metrics = true; t_families = [ "dfm_sat_" ]; t_interval_ms = Some 250 };
        Telemetry_sub { t_spans = false; t_metrics = true; t_families = []; t_interval_ms = None };
        Dump;
      ]

let test_protocol_responses () =
  List.iter resp_roundtrip
    Protocol.
      [
        Accepted { job = "J1"; position = 3 };
        Event { job = "J1"; stream = "log"; data = "line\nwith\nnewlines" };
        Result
          {
            r_job = "J1";
            r_outcome = "done";
            r_report = "report text\n";
            r_sat_queries = 123;
            r_cache_hits = 45;
            r_accepted = 3;
            r_netlist = Some "final\n";
          };
        Result
          {
            r_job = "J2";
            r_outcome = "failed";
            r_report = "";
            r_sat_queries = 0;
            r_cache_hits = 0;
            r_accepted = 0;
            r_netlist = None;
          };
        Status_report
          {
            draining = true;
            jobs =
              [
                {
                  jv_id = "J1";
                  jv_client = "a";
                  jv_kind = Lint;
                  jv_name = "n";
                  jv_state = Running;
                  jv_detail = "";
                };
              ];
            clients =
              [
                {
                  cv_client = "a";
                  cv_jobs = 2;
                  cv_service_s = 1.25;
                  cv_cache_hits = 10;
                  cv_cache_misses = 3;
                };
              ];
          };
        Metrics_text "# HELP x\n";
        Telemetry { stream = "spans"; data = "{\"name\":\"a\",\"ph\":\"X\"}\n" };
        Telemetry { stream = "metrics"; data = "dfm_x_total 1\n" };
        Drained { completed = 9 };
        Dumped { trace = "/tmp/flight-1-1.trace.json"; text = "/tmp/flight-1-1.txt" };
        Ok_resp;
        Error_msg "no such job";
      ]

let test_protocol_rejects () =
  let bad_req s =
    match Protocol.request_of_json s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "request decoder should reject %S" s
  in
  bad_req "not json";
  bad_req "{}";
  bad_req {|{"type":"teleport"}|};
  bad_req {|{"op":"ping"}|};
  bad_req {|{"type":"submit"}|};
  (* mistyped optional field: absent would be fine, a wrong type is not *)
  bad_req
    {|{"type":"submit","client":"c","kind":"analyze","name":"n","netlist":"x","jobs":"four"}|};
  (* telemetry subscriptions: families must be a list of strings *)
  bad_req {|{"type":"telemetry_sub","spans":true,"metrics":true,"families":"dfm_"}|};
  bad_req {|{"type":"telemetry_sub","spans":true,"metrics":true,"families":[1]}|};
  match Protocol.response_of_json {|{"type":"warp"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "response decoder should reject unknown types"

(* ------------------------------------------------------------------ *)
(* Scheduler: fair share across tenants                               *)
(* ------------------------------------------------------------------ *)

let take_exn s =
  match Scheduler.take s with
  | Some (c, j) -> (c, j)
  | None -> Alcotest.fail "scheduler empty"

let test_sched_single_client_fifo () =
  let s = Scheduler.create () in
  ignore (Scheduler.submit s ~client:"a" 1);
  ignore (Scheduler.submit s ~client:"a" 2);
  ignore (Scheduler.submit s ~client:"a" 3);
  Alcotest.(check int) "pending" 3 (Scheduler.pending s);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> snd (take_exn s)));
  Alcotest.(check bool) "drained" true (Scheduler.take s = None)

let test_sched_fairness () =
  let s = Scheduler.create () in
  (* a floods the queue; b submits one job later.  With zero service all
     around, the tie breaks on submission order — but as soon as a has
     consumed service, b's job overtakes a's backlog. *)
  ignore (Scheduler.submit s ~client:"a" 10);
  ignore (Scheduler.submit s ~client:"a" 11);
  ignore (Scheduler.submit s ~client:"b" 20);
  Alcotest.(check (pair string int)) "tie breaks on submission seq" ("a", 10) (take_exn s);
  Scheduler.charge s ~client:"a" 1.0;
  Alcotest.(check (pair string int)) "least-served client preempts backlog" ("b", 20)
    (take_exn s);
  Scheduler.charge s ~client:"b" 2.0;
  Alcotest.(check (pair string int)) "service ordering" ("a", 11) (take_exn s);
  Alcotest.(check (float 1e-9)) "service persists" 1.0 (Scheduler.service s ~client:"a")

let test_sched_newcomer_virtual_time () =
  let s = Scheduler.create () in
  ignore (Scheduler.submit s ~client:"veteran" 1);
  Scheduler.charge s ~client:"veteran" 100.0;
  (* the newcomer starts at the minimum live service (100), not at 0: it
     is served promptly but is not owed the veteran's whole history *)
  ignore (Scheduler.submit s ~client:"newcomer" 2);
  Alcotest.(check (pair string int)) "tie at min service, seq breaks it" ("veteran", 1)
    (take_exn s);
  Alcotest.(check (pair string int)) "newcomer next" ("newcomer", 2) (take_exn s)

let test_sched_position_and_remove () =
  let s = Scheduler.create () in
  Alcotest.(check int) "first submit is next" 0 (Scheduler.submit s ~client:"a" 1);
  ignore (Scheduler.submit s ~client:"a" 2);
  ignore (Scheduler.submit s ~client:"b" 3);
  (* projected dispatch: a:1 (tie/seq), then b:3 (a was charged a unit in
     projection), then a:2 *)
  Alcotest.(check (option int)) "head of a" (Some 0) (Scheduler.position s (( = ) 1));
  Alcotest.(check (option int)) "head of b" (Some 1) (Scheduler.position s (( = ) 3));
  Alcotest.(check (option int)) "second of a" (Some 2) (Scheduler.position s (( = ) 2));
  Alcotest.(check (option int)) "absent" None (Scheduler.position s (( = ) 99));
  Alcotest.(check (option int)) "cancel pulls from the middle" (Some 2)
    (Scheduler.remove s (( = ) 2));
  Alcotest.(check int) "pending shrinks" 2 (Scheduler.pending s);
  Alcotest.(check (option int)) "remove misses" None (Scheduler.remove s (( = ) 2));
  Alcotest.(check (list string)) "clients in first-submission order" [ "a"; "b" ]
    (Scheduler.clients s)

(* ------------------------------------------------------------------ *)
(* serve.conn failpoint through a real socketpair                     *)
(* ------------------------------------------------------------------ *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ());
      Failpoint.clear ())
    (fun () -> f a b)

let drain_into_decoder fd =
  let dec = Frame.Decoder.create () in
  let buf = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> dec
    | n ->
        Frame.Decoder.feed dec buf n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> dec
  in
  go ()

let test_conn_drop_failpoint () =
  with_socketpair @@ fun a b ->
  Failpoint.enable "serve.conn" Failpoint.Io_error;
  (match Frame.write a "doomed" with
  | () -> Alcotest.fail "armed serve.conn should fail the write"
  | exception Sys_error _ -> ());
  Failpoint.clear ();
  (* a dropped connection sends nothing: the peer sees a clean close with
     zero buffered bytes, not a torn frame *)
  Unix.close a;
  let dec = drain_into_decoder b in
  Alcotest.(check int) "nothing reached the peer" 0 (Frame.Decoder.buffered dec)

let test_conn_torn_write_failpoint () =
  with_socketpair @@ fun a b ->
  Failpoint.enable "serve.conn" Failpoint.Partial_write;
  (match Frame.write a "torn frame payload" with
  | () -> Alcotest.fail "armed serve.conn should fail the write"
  | exception Sys_error _ -> ());
  Failpoint.clear ();
  Unix.close a;
  (* the peer got a strict prefix: the decoder must hold it as incomplete
     (never a payload, never a spurious success), and a blocking read
     reports the mid-frame cut *)
  let dec = drain_into_decoder b in
  let torn = Frame.Decoder.buffered dec in
  Alcotest.(check bool) "a torn prefix reached the peer" true (torn > 0);
  Alcotest.(check bool) "prefix is strictly short" true
    (torn < String.length (Frame.encode "torn frame payload"));
  (match Frame.Decoder.next dec with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "torn prefix decoded as a payload"
  | Error e -> Alcotest.failf "torn prefix errored: %s" e)

let test_conn_torn_read_reports_cut () =
  with_socketpair @@ fun a b ->
  Failpoint.enable "serve.conn" Failpoint.Partial_write;
  (try Frame.write a "another torn frame" with Sys_error _ -> ());
  Failpoint.clear ();
  Unix.close a;
  let dec = Frame.Decoder.create () in
  match Frame.read dec b with
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions the cut (%s)" e)
        true
        (String.length e > 0)
  | Ok p -> Alcotest.failf "torn frame read as %S" p

let test_conn_delay_then_delivers () =
  with_socketpair @@ fun a b ->
  Failpoint.enable "serve.conn" (Failpoint.Delay 0.01);
  Frame.write a "delayed but intact";
  Failpoint.clear ();
  let dec = Frame.Decoder.create () in
  match Frame.read dec b with
  | Ok p -> Alcotest.(check string) "payload survives a delay" "delayed but intact" p
  | Error e -> Alcotest.failf "delayed frame lost: %s" e

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* What a long-lived daemon keeps per finished job                      *)
(* ------------------------------------------------------------------ *)

module Daemon = Dfm_serve.Daemon
module Client = Dfm_serve.Client
module Metrics = Dfm_obs.Metrics
module Span = Dfm_obs.Span

let rec remove_tree p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun c -> remove_tree (Filename.concat p c)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* A daemon in a thread of this process on a fresh state dir; [f] gets a
   connected client.  The daemon is drained and joined before returning. *)
let with_daemon ?(jobs = 1) f =
  let dir = Filename.temp_dir "dfm_serve_test" "" in
  let sock = Filename.concat dir "d.sock" in
  let state = Atomic.make `Starting in
  let cfg =
    { Daemon.socket_path = sock; state_dir = Filename.concat dir "state"; jobs;
      certify = false }
  in
  let th =
    Thread.create
      (fun () ->
        match Daemon.run ~on_ready:(fun () -> Atomic.set state `Ready) cfg with
        | _ -> ()
        | exception e -> Atomic.set state (`Failed (Printexc.to_string e)))
      ()
  in
  while Atomic.get state = `Starting do
    Thread.delay 0.01
  done;
  (match Atomic.get state with
  | `Failed e -> Alcotest.failf "daemon did not start: %s" e
  | _ -> ());
  let conn =
    match Client.connect sock with Ok c -> c | Error e -> Alcotest.failf "connect: %s" e
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request conn Protocol.Drain : (Protocol.response, string) result);
      Client.close conn;
      Thread.join th;
      remove_tree dir)
    (fun () -> f conn)

(* A lint job by default: it runs in milliseconds, yet the daemon keeps
   what it keeps for any job. *)
let run_job ?(kind = Protocol.Lint) ?(limits = Protocol.no_limits) conn ~client text =
  let sub =
    {
      Protocol.client;
      kind;
      name = "aes_core";
      netlist = text;
      limits;
      static_filter = false;
      sat_mode = None;
      q_max = None;
      p1 = None;
    }
  in
  match Client.submit_and_wait conn sub with
  | Ok p when p.Protocol.r_outcome = "done" -> ()
  | Ok p -> Alcotest.failf "job %s: %s" p.Protocol.r_outcome p.Protocol.r_report
  | Error e -> Alcotest.failf "submit: %s" e

let netlist_text =
  lazy
    (Dfm_netlist.Netlist_io.to_string (Dfm_circuits.Circuits.build ~scale:0.25 "aes_core"))

(* Attribution is per tenant: once each tenant has run a job, more jobs
   register no more metric series. *)
let test_series_per_tenant () =
  let text = Lazy.force netlist_text in
  with_daemon @@ fun conn ->
  run_job conn ~client:"alpha" text;
  run_job conn ~client:"beta" text;
  let first = List.length (Metrics.snapshot ()) in
  for _ = 2 to 10 do
    run_job conn ~client:"alpha" text;
    run_job conn ~client:"beta" text
  done;
  Alcotest.(check int) "series after 10 jobs per tenant" first
    (List.length (Metrics.snapshot ()))

(* A finished job lets its netlist text go.  The daemon still keeps each
   job's record and result, about 300 words for these jobs; the netlist
   text alone is about 2,700.  The first jobs also fill the flight
   recorder's fixed rings, so the growth is measured after 60 of them. *)
let test_finished_jobs_release_netlists () =
  let text = Lazy.force netlist_text in
  with_daemon @@ fun conn ->
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let run n =
    for i = 1 to n do
      run_job conn ~client:(if i mod 2 = 0 then "alpha" else "beta") text
    done
  in
  run 60;
  let before = live () in
  let jobs = 40 in
  run jobs;
  let per_job = (live () - before) / jobs in
  if per_job >= 1000 then
    Alcotest.failf "live heap grew by %d words per finished job (netlist text: %d words)"
      per_job (String.length text / 8)

(* The daemon sets the process default worker cap to its own [jobs], and
   each job to its cap; once [run] returns, the caller's default is back. *)
let test_run_restores_default_jobs () =
  let saved = Dfm_util.Parallel.default_jobs () in
  Fun.protect ~finally:(fun () -> Dfm_util.Parallel.set_default_jobs saved) @@ fun () ->
  Dfm_util.Parallel.set_default_jobs 2;
  with_daemon ~jobs:3 (fun conn -> run_job conn ~client:"alpha" (Lazy.force netlist_text));
  Alcotest.(check int) "default jobs after the daemon returned" 2
    (Dfm_util.Parallel.default_jobs ())

(* A tenant's worker cap is clamped to the daemon's width: on a one-worker
   daemon, an analyze job asking for three workers runs every SAT block of
   tv80@0.5 (two blocks) on one domain.  The flight recorder, which the
   daemon arms, shows the domains: the job's classify.shard spans carry one
   tid. *)
let test_tenant_jobs_clamped () =
  let text =
    Dfm_netlist.Netlist_io.to_string (Dfm_circuits.Circuits.build ~scale:0.5 "tv80")
  in
  with_daemon ~jobs:1 @@ fun conn ->
  let t0 = Dfm_obs.Clock.now_ns () in
  run_job ~kind:Protocol.Analyze
    ~limits:{ Protocol.no_limits with Protocol.jobs = Some 3 }
    conn ~client:"alpha" text;
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Span.event) ->
           if e.Span.name = "classify.shard" && e.Span.begin_ns >= t0 then Some e.Span.tid
           else None)
         (Span.recent ()))
  in
  Alcotest.(check int) "domains the job's SAT blocks ran on" 1 (List.length tids)

(* A status request naming one job id lists that job alone. *)
let test_status_of_one_job () =
  let text = Lazy.force netlist_text in
  with_daemon @@ fun conn ->
  run_job conn ~client:"alpha" text;
  run_job conn ~client:"beta" text;
  match Client.request conn (Protocol.Status (Some "J2")) with
  | Ok (Protocol.Status_report { jobs; _ }) ->
      Alcotest.(check (list string)) "listed jobs" [ "J2" ]
        (List.map (fun jv -> jv.Protocol.jv_id) jobs)
  | Ok _ -> Alcotest.fail "unexpected status response"
  | Error e -> Alcotest.failf "status: %s" e

let suite =
  [
    Alcotest.test_case "wire: roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: numbers" `Quick test_wire_numbers;
    Alcotest.test_case "wire: unicode escapes" `Quick test_wire_unicode_escape;
    Alcotest.test_case "wire: rejects malformed" `Quick test_wire_rejects;
    Alcotest.test_case "wire: accessors" `Quick test_wire_accessors;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "frame: roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame: byte-at-a-time" `Quick test_frame_byte_at_a_time;
    Alcotest.test_case "frame: cut matrix" `Quick test_frame_cut_matrix;
    Alcotest.test_case "frame: bad magic latches" `Quick test_frame_bad_magic;
    Alcotest.test_case "frame: bad checksum" `Quick test_frame_bad_checksum;
    Alcotest.test_case "frame: bad length" `Quick test_frame_bad_length;
    Alcotest.test_case "frame: encode rejects" `Quick test_frame_encode_rejects;
    QCheck_alcotest.to_alcotest prop_frame_fuzz_garbage;
    QCheck_alcotest.to_alcotest prop_frame_fuzz_flip;
    Alcotest.test_case "protocol: requests roundtrip" `Quick test_protocol_requests;
    Alcotest.test_case "protocol: responses roundtrip" `Quick test_protocol_responses;
    Alcotest.test_case "protocol: rejects malformed" `Quick test_protocol_rejects;
    Alcotest.test_case "sched: single-client fifo" `Quick test_sched_single_client_fifo;
    Alcotest.test_case "sched: fair share" `Quick test_sched_fairness;
    Alcotest.test_case "sched: newcomer virtual time" `Quick
      test_sched_newcomer_virtual_time;
    Alcotest.test_case "sched: position and cancel" `Quick test_sched_position_and_remove;
    Alcotest.test_case "conn: drop failpoint" `Quick test_conn_drop_failpoint;
    Alcotest.test_case "conn: torn write failpoint" `Quick test_conn_torn_write_failpoint;
    Alcotest.test_case "conn: torn read reports cut" `Quick test_conn_torn_read_reports_cut;
    Alcotest.test_case "conn: delay delivers intact" `Quick test_conn_delay_then_delivers;
    Alcotest.test_case "daemon: metric series per tenant, not per job" `Quick
      test_series_per_tenant;
    Alcotest.test_case "daemon: finished jobs release their netlists" `Quick
      test_finished_jobs_release_netlists;
    Alcotest.test_case "daemon: run restores the default worker cap" `Quick
      test_run_restores_default_jobs;
    Alcotest.test_case "daemon: a tenant's worker cap is clamped to the daemon's" `Quick
      test_tenant_jobs_clamped;
    Alcotest.test_case "daemon: status of one job lists that job alone" `Quick
      test_status_of_one_job;
  ]
