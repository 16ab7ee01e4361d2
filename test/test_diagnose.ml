(* Tests for fault diagnosis: a die failing with a known injected defect
   must be diagnosed back to that defect (top-ranked, or tied for top when
   structurally equivalent faults exist). *)

module N = Dfm_netlist.Netlist
module F = Dfm_faults.Fault
module Design = Dfm_core.Design
module Diagnose = Dfm_core.Diagnose
module Atpg = Dfm_atpg.Atpg
module Rng = Dfm_util.Rng

let setup =
  lazy
    (let nl = Dfm_circuits.Circuits.build ~scale:0.3 "sparc_spu" in
     let d = Design.implement nl in
     let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
     let g = Atpg.generate nl faults in
     (nl, d, faults, g))

let detected_faults () =
  let _, d, faults, g = Lazy.force setup in
  Array.to_list faults
  |> List.filter (fun (f : F.t) ->
         g.Atpg.classification.Atpg.status.(f.F.fault_id) = Atpg.Detected
         && d.Design.classification.Atpg.status.(f.F.fault_id) = Atpg.Detected)

let test_injected_fault_ranks_first () =
  let nl, _, faults, g = Lazy.force setup in
  let rng = Rng.create 4 in
  let candidates_pool = detected_faults () in
  Alcotest.(check bool) "pool nonempty" true (candidates_pool <> []);
  let injected = Rng.sample rng 5 candidates_pool in
  List.iter
    (fun (truth : F.t) ->
      let observed = Diagnose.simulate_defect nl ~tests:g.Atpg.tests truth in
      Alcotest.(check bool) "defect causes failures" true (observed <> []);
      (* Structurally equivalent faults share the exact syndrome, so the
         truth may tie with arbitrarily many candidates; ask for the full
         ranking and require the truth to hold the top score. *)
      let ranked =
        Diagnose.diagnose nl ~tests:g.Atpg.tests ~observed ~candidates:faults
          ~top:(Array.length faults) ()
      in
      match ranked with
      | [] -> Alcotest.fail "no candidates"
      | best :: _ ->
          let truth_entry =
            List.find_opt (fun c -> c.Diagnose.fault.F.fault_id = truth.F.fault_id) ranked
          in
          (match truth_entry with
          | Some c ->
              Alcotest.(check bool) "true fault at top score" true
                (c.Diagnose.score >= best.Diagnose.score -. 1e-9)
          | None -> Alcotest.failf "true fault %s not ranked" (F.describe nl truth)))
    injected

let test_passing_die_diagnoses_nothing () =
  let nl, _, faults, g = Lazy.force setup in
  let ranked = Diagnose.diagnose nl ~tests:g.Atpg.tests ~observed:[] ~candidates:faults () in
  (* all candidates predict fails somewhere or are neutral; none should have
     a positive score against an all-pass response *)
  Alcotest.(check (list string)) "empty ranking" []
    (List.map (fun c -> F.describe nl c.Diagnose.fault) ranked)

(* [syndrome] propagates every fault on its own, so the union of its words
   is an independent reference for [detect_word], which reads per-net
   observability memoized per fault-free store.  Every fault is checked on
   two blocks visited A, B, A, B: a memo that outlived its store would show
   on the second visit of each. *)
let test_syndrome_consistent_with_detect_word () =
  let nl, _, faults, _ = Lazy.force setup in
  let ls = Dfm_sim.Logic_sim.prepare nl in
  let fs = Dfm_sim.Fault_sim.prepare nl in
  let rng = Rng.create 9 in
  let block () = Dfm_sim.Logic_sim.run ls (Dfm_sim.Logic_sim.random_words ls rng) in
  let a = block () in
  let b = block () in
  Alcotest.(check bool) "faults" true (Array.length faults > 0);
  List.iteri
    (fun visit good ->
      Array.iter
        (fun (f : F.t) ->
          let dw = Dfm_sim.Fault_sim.detect_word fs ~good f in
          (* for a transition fault both are the frame-2 component *)
          let union =
            List.fold_left
              (fun acc (_, w) -> Int64.logor acc w)
              0L
              (Dfm_sim.Fault_sim.syndrome fs ~good f)
          in
          if dw <> union then
            Alcotest.failf "visit %d, fault %d (%s): detect_word %Lx but syndrome union %Lx"
              visit f.F.fault_id (F.describe nl f) dw union)
        faults)
    [ a; b; a; b ]

let suite =
  [
    Alcotest.test_case "injected fault ranks first" `Slow test_injected_fault_ranks_first;
    Alcotest.test_case "passing die diagnoses nothing" `Slow test_passing_die_diagnoses_nothing;
    Alcotest.test_case "syndrome = detect word" `Slow test_syndrome_consistent_with_detect_word;
  ]
