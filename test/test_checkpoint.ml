(* Tests for the campaign journal (Dfm_core.Checkpoint) and the kill/resume
   contract of Resynth.run: the journal round-trips and truncates to the
   last accept, refuses foreign headers, recovers from torn tails — and a
   campaign killed at a record boundary (clean or torn) resumes to a final
   design, trace and counter set bit-identical to the uninterrupted run.

   The default suite runs two representative kill points; set
   REPRO_CRASH_MATRIX=full (the @runtest-crash alias) to kill at every
   record boundary with both failure modes. *)

module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Checkpoint = Dfm_core.Checkpoint
module Failpoint = Dfm_util.Failpoint
module Netlist_io = Dfm_netlist.Netlist_io

let fresh_path () =
  let p = Filename.temp_file "dfm_ckpt" ".ckpt" in
  Sys.remove p;
  p

let ev ?(action = "reject") i =
  {
    Checkpoint.ev_q = i mod 3;
    ev_phase = 1 + (i mod 2);
    ev_cell = (if i mod 2 = 0 then Some "NAND2X1" else None);
    ev_action = action;
    ev_u = 40 - i;
    ev_u_internal = 20 - i;
    ev_smax = 10 - (i mod 5);
    ev_delay = 1.0 +. (0.01 *. float_of_int i);
    ev_power = 0.5 +. (0.001 *. float_of_int i);
  }

let acc i =
  {
    Checkpoint.ev = ev ~action:"accept" i;
    netlist = Printf.sprintf "# accepted netlist %d\nmodule m%d\n" i i;
    region = List.init (i mod 4) (fun k -> (10 * i) + k);
    accepted = i;
    effort =
      {
        Checkpoint.implement_calls = 2 * i;
        sat_queries = 30 * i;
        conflicts = 5 * i;
        decisions = 7 * i;
        propagations = 11 * i;
        escalation_retries = 3 * i;
        aborted_residual = i mod 2;
      };
    p2 = 1.5;
  }

(* ------------------------------------------------------------------ *)
(* Journal round trip and truncation                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_truncates_to_last_accept () =
  let path = fresh_path () in
  let t, replay = Checkpoint.attach ~header:"h1" path in
  Alcotest.(check bool) "fresh journal has nothing to replay" true (replay = []);
  Checkpoint.append_event t (ev 1);
  Checkpoint.append_event t (ev 2);
  Checkpoint.append_accept t (acc 3);
  Checkpoint.append_event t (ev 4);
  Checkpoint.close t;
  let t2, replay2 = Checkpoint.attach ~header:"h1" path in
  Alcotest.(check bool) "tail after the last accept is dropped" true
    (replay2 = [ Checkpoint.Event (ev 1); Checkpoint.Event (ev 2); Checkpoint.Accept (acc 3) ]);
  (* the journal stays appendable after the compaction *)
  Checkpoint.append_accept t2 (acc 5);
  Checkpoint.close t2;
  let t3, replay3 = Checkpoint.attach ~header:"h1" path in
  Alcotest.(check bool) "append after reattach survives" true
    (replay3
    = [
        Checkpoint.Event (ev 1);
        Checkpoint.Event (ev 2);
        Checkpoint.Accept (acc 3);
        Checkpoint.Accept (acc 5);
      ]);
  Checkpoint.close t3;
  (* resume=false starts the campaign over *)
  let t4, replay4 = Checkpoint.attach ~resume:false ~header:"h1" path in
  Alcotest.(check bool) "resume=false truncates" true (replay4 = []);
  Checkpoint.close t4;
  let t5, replay5 = Checkpoint.attach ~header:"h1" path in
  Alcotest.(check bool) "truncation was persistent" true (replay5 = []);
  Checkpoint.close t5;
  Sys.remove path

let test_header_mismatch_refused () =
  let path = fresh_path () in
  let t, _ = Checkpoint.attach ~header:"config A" path in
  Checkpoint.append_accept t (acc 1);
  Checkpoint.close t;
  (match Checkpoint.attach ~header:"config B" path with
  | _ -> Alcotest.fail "expected Checkpoint.Error on a foreign header"
  | exception Checkpoint.Error _ -> ());
  (* the refusal must not have damaged the journal *)
  let t2, replay = Checkpoint.attach ~header:"config A" path in
  Alcotest.(check bool) "journal intact after refusal" true
    (replay = [ Checkpoint.Accept (acc 1) ]);
  Checkpoint.close t2;
  Sys.remove path

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let truncate_file path n =
  let ic = open_in_bin path in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_corruption_recovery () =
  let path = fresh_path () in
  let t, _ = Checkpoint.attach ~header:"h" path in
  Checkpoint.append_event t (ev 1);
  Checkpoint.append_event t (ev 2);
  Checkpoint.append_accept t (acc 3);
  Checkpoint.append_event t (ev 4);
  Checkpoint.append_accept t (acc 5);
  Checkpoint.close t;
  (* tear the last frame: the classic kill-during-append tail *)
  truncate_file path (file_size path - 5);
  let t2, replay = Checkpoint.attach ~header:"h" path in
  Alcotest.(check bool) "torn accept dropped, prefix truncated to last accept" true
    (replay = [ Checkpoint.Event (ev 1); Checkpoint.Event (ev 2); Checkpoint.Accept (acc 3) ]);
  Checkpoint.close t2;
  (* the recovery pass compacted the file: it now loads clean *)
  let t3, replay3 = Checkpoint.attach ~header:"h" path in
  Alcotest.(check bool) "compacted journal loads clean" true (replay3 = replay);
  Checkpoint.close t3;
  (* garbage appended after valid frames is dropped the same way *)
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "\xff\xff\xff\xffgarbage";
  close_out oc;
  let t4, replay4 = Checkpoint.attach ~header:"h" path in
  Alcotest.(check bool) "garbage tail dropped" true (replay4 = replay);
  Checkpoint.close t4;
  Sys.remove path

let test_append_failpoint_is_loud () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  let path = fresh_path () in
  let t, _ = Checkpoint.attach ~header:"h" path in
  Checkpoint.append_event t (ev 1);
  Failpoint.enable ~times:1 "checkpoint.append" Failpoint.Io_error;
  (match Checkpoint.append_event t (ev 2) with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  (* unlike the cache store, the journal never degrades silently: once the
     failpoint is exhausted the very same handle keeps appending *)
  Checkpoint.append_accept t (acc 3);
  (* a torn write mid-accept: half a frame reaches the disk *)
  Failpoint.enable ~times:1 "checkpoint.append" Failpoint.Partial_write;
  (match Checkpoint.append_accept t (acc 4) with
  | () -> Alcotest.fail "expected Sys_error"
  | exception Sys_error _ -> ());
  Checkpoint.close t;
  Failpoint.clear ();
  let t2, replay = Checkpoint.attach ~header:"h" path in
  Alcotest.(check bool) "torn frame dropped, intact prefix recovered" true
    (replay = [ Checkpoint.Event (ev 1); Checkpoint.Accept (acc 3) ]);
  Checkpoint.close t2;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Kill/resume on a real campaign                                       *)
(* ------------------------------------------------------------------ *)

let scale = 0.4

(* The campaigns run with a tiny conflict budget, so the abort escalation
   ladder works throughout and its counts must survive a resume too. *)
let campaign ?seed ~resume path d0 =
  Resynth.run ?seed ~max_conflicts:2 ~checkpoint:{ Resynth.path; resume } d0

(* The uninterrupted reference campaign, journaled with a counting-only
   failpoint so we learn how many journal appends the run performs — the
   crash matrix kills at each of those boundaries. *)
let reference =
  lazy
    (let nl = Dfm_circuits.Circuits.build ~scale "sparc_spu" in
     let d0 = Design.implement nl in
     let path = fresh_path () in
     Failpoint.clear ();
     Failpoint.enable ~after:max_int "checkpoint.append" Failpoint.Raise;
     let r = campaign ~resume:false path d0 in
     let appends = Failpoint.hit_count "checkpoint.append" in
     Failpoint.clear ();
     Sys.remove path;
     (d0, r, appends))

let check_bit_identical label (r_ref : Resynth.result) (r : Resynth.result) =
  Alcotest.(check string)
    (label ^ ": final netlist identical")
    (Netlist_io.to_string r_ref.Resynth.final.Design.netlist)
    (Netlist_io.to_string r.Resynth.final.Design.netlist);
  Alcotest.(check bool) (label ^ ": trace identical") true (r.Resynth.trace = r_ref.Resynth.trace);
  Alcotest.(check int) (label ^ ": accepted") r_ref.Resynth.accepted r.Resynth.accepted;
  Alcotest.(check int)
    (label ^ ": escalation retries")
    r_ref.Resynth.effort.Resynth.escalation_retries r.Resynth.effort.Resynth.escalation_retries;
  Alcotest.(check bool) (label ^ ": effort identical") true (r.Resynth.effort = r_ref.Resynth.effort)

(* Kill the campaign at journal append [kill_at] (0-based) with [action]
   (a clean raise or a torn write), then resume from the journal and
   demand the uninterrupted run's exact result. *)
let kill_and_resume ~kill_at ~action =
  let d0, r_ref, _ = Lazy.force reference in
  let path = fresh_path () in
  Failpoint.clear ();
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Failpoint.enable ~after:kill_at ~times:1 "checkpoint.append" action;
  (match campaign ~resume:false path d0 with
  | _ -> Alcotest.failf "kill at append %d never fired" kill_at
  | exception (Failpoint.Injected _ | Sys_error _) -> ());
  Failpoint.clear ();
  let r = campaign ~resume:true path d0 in
  check_bit_identical (Printf.sprintf "kill@%d" kill_at) r_ref r;
  r

let test_kill_resume_representative () =
  let _, r_ref, appends = Lazy.force reference in
  Alcotest.(check bool) "campaign journals records" true (appends > 0);
  Alcotest.(check bool) "campaign accepts steps" true (r_ref.Resynth.accepted >= 2);
  Alcotest.(check bool) "campaign escalates" true
    (r_ref.Resynth.effort.Resynth.escalation_retries > 0);
  (* mid-campaign clean kill *)
  ignore (kill_and_resume ~kill_at:(appends / 2) ~action:Failpoint.Raise : Resynth.result);
  (* kill during the very last append, with a torn write: every earlier
     accept is in the journal, so the resume must actually replay *)
  let r = kill_and_resume ~kill_at:(appends - 1) ~action:Failpoint.Partial_write in
  Alcotest.(check bool) "resume replayed accepted steps" true (r.Resynth.resumed_steps > 0)

(* Resuming a journal of a *completed* campaign replays the accepted chain
   and re-derives only the post-accept tail: same result again. *)
let test_resume_completed_campaign () =
  let d0, r_ref, _ = Lazy.force reference in
  let path = fresh_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let r1 = campaign ~resume:false path d0 in
  check_bit_identical "clean checkpointed run" r_ref r1;
  let r2 = campaign ~resume:true path d0 in
  check_bit_identical "resume of completed run" r_ref r2;
  Alcotest.(check bool) "replayed the accepted chain" true
    (r2.Resynth.resumed_steps = r_ref.Resynth.accepted)

(* A journal written under a different configuration must be refused. *)
let test_resume_refuses_other_config () =
  let d0, _, _ = Lazy.force reference in
  let path = fresh_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let _ = campaign ~resume:false path d0 in
  match campaign ~seed:4 ~resume:true path d0 with
  | _ -> Alcotest.fail "expected Checkpoint.Error for a foreign journal"
  | exception Checkpoint.Error _ -> ()

(* The journal records a claim, not a proof: a resume derives each accept
   again from its region and boundary cell, and refuses a journal whose
   accepted netlist text was edited, here to swap the first gate of the
   first accept to a cell of the same arity and another function. *)
let test_resume_refuses_edited_netlist () =
  let d0, _, _ = Lazy.force reference in
  let lib = d0.Design.netlist.N.library in
  let path = fresh_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  ignore (campaign ~resume:false path d0 : Resynth.result);
  let swap_first_gate text =
    let nl = Netlist_io.read ~library:lib text in
    let g = nl.N.gates.(0) in
    let other =
      List.find
        (fun (c : Cell.t) ->
          Cell.arity c = Cell.arity g.N.cell
          && not (Dfm_logic.Truthtable.equal c.Cell.func g.N.cell.Cell.func))
        (Dfm_netlist.Library.combinational lib)
    in
    let gates = Array.copy nl.N.gates in
    gates.(0) <- { g with N.cell = other };
    Netlist_io.to_string { nl with N.gates }
  in
  let magic = "DFMCK05\n" in
  let loaded = Dfm_util.Journal.load ~magic path in
  let edited = ref false in
  let keep =
    List.map
      (fun payload ->
        match (Marshal.from_string payload 0 : Checkpoint.entry) with
        | Checkpoint.Accept a when not !edited ->
            edited := true;
            let netlist = swap_first_gate a.Checkpoint.netlist in
            Marshal.to_string (Checkpoint.Accept { a with Checkpoint.netlist }) []
        | Checkpoint.Header _ | Checkpoint.Event _ | Checkpoint.Accept _ -> payload)
      (Dfm_util.Journal.intact_prefix loaded)
  in
  Alcotest.(check bool) "the journal holds an accept" true !edited;
  Dfm_util.Journal.close (Dfm_util.Journal.open_ ~magic ~keep loaded path);
  match campaign ~resume:true path d0 with
  | _ -> Alcotest.fail "expected Checkpoint.Error for an edited accept"
  | exception Checkpoint.Error _ -> ()

(* The full matrix: kill at every journal append boundary, clean and torn.
   Minutes of work, so it runs under REPRO_CRASH_MATRIX=full — the
   @runtest-crash alias. *)
let test_crash_matrix () =
  match Sys.getenv_opt "REPRO_CRASH_MATRIX" with
  | Some "full" ->
      let _, _, appends = Lazy.force reference in
      for kill_at = 0 to appends - 1 do
        List.iter
          (fun action -> ignore (kill_and_resume ~kill_at ~action : Resynth.result))
          [ Failpoint.Raise; Failpoint.Partial_write ]
      done
  | _ -> ()

let suite =
  [
    Alcotest.test_case "roundtrip truncates to last accept" `Quick
      test_roundtrip_truncates_to_last_accept;
    Alcotest.test_case "header mismatch refused" `Quick test_header_mismatch_refused;
    Alcotest.test_case "corruption recovery" `Quick test_corruption_recovery;
    Alcotest.test_case "append failures are loud" `Quick test_append_failpoint_is_loud;
    Alcotest.test_case "kill/resume is bit-identical" `Slow test_kill_resume_representative;
    Alcotest.test_case "resume of a completed campaign" `Slow test_resume_completed_campaign;
    Alcotest.test_case "foreign journal refused" `Slow test_resume_refuses_other_config;
    Alcotest.test_case "edited accept refused" `Slow test_resume_refuses_edited_netlist;
    Alcotest.test_case "crash matrix (REPRO_CRASH_MATRIX=full)" `Slow test_crash_matrix;
  ]
