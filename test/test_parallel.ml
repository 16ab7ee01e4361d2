(* Tests for Dfm_util.Parallel and the determinism contract of the
   fault-classification engine: any job count must produce the results of
   the one-worker run, SAT effort included. *)

module Parallel = Dfm_util.Parallel
module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Rng = Dfm_util.Rng
module Design = Dfm_core.Design

let lib = Dfm_cellmodel.Osu018.library
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* ------------------------------------------------------------------ *)
(* Batches                                                              *)
(* ------------------------------------------------------------------ *)

let test_chunk_bounds () =
  List.iter
    (fun (chunk, n) ->
      let bounds = Parallel.chunk_bounds ~chunk n in
      (* ranges tile [0, n) exactly, in order, each at most [chunk] long *)
      let covered = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !covered lo;
          Alcotest.(check bool) "non-empty" true (hi > lo);
          Alcotest.(check bool) "at most chunk" true (hi - lo <= max 1 chunk);
          covered := hi)
        bounds;
      Alcotest.(check int) (Printf.sprintf "covers 0..%d" n) n !covered)
    [ (1, 5); (3, 10); (10, 10); (64, 1000); (1000, 64); (7, 0) ]

let test_run_disjoint_writes () =
  let out = Array.make 997 0 in
  let bounds = Parallel.chunk_bounds ~chunk:13 (Array.length out) in
  Parallel.run ~jobs:4
    (Array.map
       (fun (lo, hi) () ->
         for i = lo to hi - 1 do
           out.(i) <- i * 3
         done)
       bounds);
  Alcotest.(check bool) "all slots written" true
    (Array.for_all (fun v -> v >= 0) out && out.(996) = 996 * 3 && out.(0) = 0)

exception Boom

(* The pool's own counts of in-place retries and coordinator fallbacks
   (registering a name again returns the pool's handle). *)
let pool_supervision () =
  let value name = Dfm_obs.Metrics.(counter_value (counter name)) in
  (value "dfm_pool_task_retries_total", value "dfm_pool_task_fallbacks_total")

(* [f ()] and the [(retried, fell_back)] its batches added to the pool's
   supervision counters. *)
let supervised f =
  let r0, b0 = pool_supervision () in
  let v = f () in
  let r1, b1 = pool_supervision () in
  (v, (r1 - r0, b1 - b0))

let check_supervision (retried, fell_back) (r, b) =
  Alcotest.(check int) "in-place retries" retried r;
  Alcotest.(check int) "coordinator fallbacks" fell_back b

let test_supervised_clean_batch () =
  let out = Array.make 100 0 in
  let (), sup =
    supervised (fun () -> Parallel.run ~jobs:4 (Array.init 100 (fun i () -> out.(i) <- i + 1)))
  in
  Alcotest.(check bool) "all ran" true (Array.for_all (fun v -> v > 0) out);
  check_supervision (0, 0) sup

let test_supervised_flaky_task_retried () =
  let attempts = Array.init 8 (fun _ -> Atomic.make 0) in
  let out = Array.make 8 0 in
  (* task 5 fails on its first two attempts, succeeds on the third — within
     the retry budget, so the batch completes without fallback *)
  let (), sup =
    supervised (fun () ->
        Parallel.run ~jobs:4
          (Array.init 8 (fun i () ->
               let n = Atomic.fetch_and_add attempts.(i) 1 in
               if i = 5 && n < 2 then raise Boom;
               out.(i) <- i + 1)))
  in
  Alcotest.(check bool) "every slot filled" true (Array.for_all (fun v -> v > 0) out);
  check_supervision (2, 0) sup

let test_supervised_fallback_then_success () =
  let attempts = Atomic.make 0 in
  let done_ = ref false in
  (* fails on attempts 1..3 (exhausting the two retries), succeeds on the
     4th — which is the sequential coordinator fallback *)
  let (), sup =
    supervised (fun () ->
        Parallel.run ~jobs:3
          [|
            (fun () ->
              let n = Atomic.fetch_and_add attempts 1 in
              if n < 3 then raise Boom;
              done_ := true);
            (fun () -> ());
          |])
  in
  Alcotest.(check bool) "task eventually completed" true !done_;
  check_supervision (2, 1) sup

let test_supervised_poisoned_task_raises_in_coordinator () =
  let others = Atomic.make 0 in
  (try
     Parallel.run ~jobs:3
       (Array.init 10 (fun i () -> if i = 4 then raise Boom else Atomic.incr others));
     Alcotest.fail "expected Boom from the coordinator fallback"
   with Boom -> ());
  (* the poisoned task degraded, it did not kill the rest of the batch *)
  Alcotest.(check int) "other tasks all completed" 9 (Atomic.get others)

(* ------------------------------------------------------------------ *)
(* Determinism of the classification across job counts                 *)
(* ------------------------------------------------------------------ *)

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"par" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells = [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "AOI21X1"; "OAI21X1" |] in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Dfm_netlist.Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 3 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

let all_faults nl =
  let faults = ref [] in
  let id = ref 0 in
  let add kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      List.iter (fun pol -> add (F.Stuck (F.On_net nn.N.net_id, pol))) [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr -> add (F.Transition (F.On_net nn.N.net_id, tr)))
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  Array.iteri
    (fun gid (g : N.gate) ->
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri (fun entry_idx _ -> add (F.Internal (gid, entry_idx))) u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  Array.of_list (List.rev !faults)

(* A classification and the conflicts, decisions and propagations its SAT
   phase spent. *)
let classify_effort ~jobs nl faults =
  let c0, d0, p0 = Dfm_sat.Solver.totals () in
  let cls = Atpg.classify ~jobs nl faults in
  let c1, d1, p1 = Dfm_sat.Solver.totals () in
  (cls, (c1 - c0, d1 - d0, p1 - p0))

let test_classify_jobs_bit_identical () =
  List.iter
    (fun seed ->
      let nl = random_netlist seed 5 25 in
      let faults = all_faults nl in
      let ref_cls, ref_effort = classify_effort ~jobs:1 nl faults in
      List.iter
        (fun jobs ->
          let cls, effort = classify_effort ~jobs nl faults in
          Alcotest.(check bool)
            (Printf.sprintf "status arrays identical (seed %d, %d jobs)" seed jobs)
            true
            (cls.Atpg.status = ref_cls.Atpg.status);
          Alcotest.(check bool)
            (Printf.sprintf "counts identical (seed %d, %d jobs)" seed jobs)
            true (cls.Atpg.counts = ref_cls.Atpg.counts);
          Alcotest.(check (triple int int int))
            (Printf.sprintf "SAT effort identical (seed %d, %d jobs)" seed jobs)
            ref_effort effort)
        [ 2; 3; 4; 9 ])
    [ 11; 222; 3333 ]

(* The acceptance-level check: classification under injected task failures
   is bit-identical to the clean one-worker run.  The netlist's one task is
   its SAT block: three failures spend its two in-place retries and send it
   to the coordinator fallback, which succeeds. *)
let test_classify_with_failpoints_bit_identical () =
  let nl = random_netlist 4242 5 30 in
  let faults = all_faults nl in
  let ref_cls = Atpg.classify ~jobs:1 nl faults in
  Dfm_util.Failpoint.clear ();
  Fun.protect ~finally:Dfm_util.Failpoint.clear @@ fun () ->
  Dfm_util.Failpoint.enable ~times:3 "parallel.task" Dfm_util.Failpoint.Raise;
  let cls, sup = supervised (fun () -> Atpg.classify ~jobs:4 nl faults) in
  check_supervision (2, 1) sup;
  Alcotest.(check bool) "statuses identical under injected failures" true
    (cls.Atpg.status = ref_cls.Atpg.status);
  Alcotest.(check bool) "counts identical under injected failures" true
    (cls.Atpg.counts = ref_cls.Atpg.counts);
  Alcotest.(check bool) "failpoint actually exercised" true
    (Dfm_util.Failpoint.hit_count "parallel.task" > 0)

(* The ISSUE-level regression: a full Design.implement of a benchmark block
   at jobs=1 and jobs=4 gives identical per-fault statuses and identical
   metrics. *)
let test_design_implement_jobs_deterministic () =
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  let d1 = Design.implement ~jobs:1 nl in
  let d4 = Design.implement ~jobs:4 nl in
  Alcotest.(check bool) "per-fault status arrays identical" true
    (d1.Design.classification.Atpg.status = d4.Design.classification.Atpg.status);
  Alcotest.(check bool) "counts identical" true
    (d1.Design.classification.Atpg.counts = d4.Design.classification.Atpg.counts);
  Alcotest.(check bool) "Design.metrics identical" true
    (Design.metrics d1 = Design.metrics d4)

let suite =
  [
    Alcotest.test_case "chunk bounds tile the range" `Quick test_chunk_bounds;
    Alcotest.test_case "run disjoint writes" `Quick test_run_disjoint_writes;
    Alcotest.test_case "supervised clean batch" `Quick test_supervised_clean_batch;
    Alcotest.test_case "supervised flaky task retried" `Quick test_supervised_flaky_task_retried;
    Alcotest.test_case "supervised fallback succeeds" `Quick test_supervised_fallback_then_success;
    Alcotest.test_case "supervised poisoned task raises in coordinator" `Quick
      test_supervised_poisoned_task_raises_in_coordinator;
    Alcotest.test_case "classify bit-identical under injected task failures" `Quick
      test_classify_with_failpoints_bit_identical;
    Alcotest.test_case "classify bit-identical across jobs" `Quick test_classify_jobs_bit_identical;
    Alcotest.test_case "Design.implement deterministic across jobs" `Slow
      test_design_implement_jobs_deterministic;
  ]
