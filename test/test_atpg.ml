(* Tests for dfm_atpg: detection verdicts against brute force, test-set
   generation, and consistency between the SAT engine and the fault
   simulator. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg
module Encode = Dfm_atpg.Encode
module Ls = Dfm_sim.Logic_sim
module Fs = Dfm_sim.Fault_sim
module Rng = Dfm_util.Rng

let lib = Dfm_cellmodel.Osu018.library
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

(* The circuit from the ATPG smoke check: n2 = NAND(a, not a) is constant 1,
   a classic redundancy. *)
let redundant_circuit () =
  let b = B.create ~name:"redund" lib in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let n1 = B.add_gate b ~cell:"INVX1" [| a |] in
  let n2 = B.add_gate b ~cell:"NAND2X1" [| a; n1 |] in
  let n3 = B.add_gate b ~cell:"NAND2X1" [| n2; c |] in
  B.mark_po b "y" n3;
  (B.finish b, n2)

let test_known_redundancy () =
  let nl, n2 = redundant_circuit () in
  let mk kind id = { F.fault_id = id; kind; origin } in
  let faults =
    [|
      mk (F.Stuck (F.On_net n2, F.Sa1)) 0;  (* undetectable: n2 is always 1 *)
      mk (F.Stuck (F.On_net n2, F.Sa0)) 1;  (* detectable *)
      mk (F.Transition (F.On_net n2, F.Slow_to_rise)) 2;
      (* STR needs initial 0 at n2: uncontrollable -> undetectable *)
      mk (F.Transition (F.On_net n2, F.Slow_to_fall)) 3;
      (* STF frame 2 = SA1 aspect: undetectable *)
    |]
  in
  let cls = Atpg.classify nl faults in
  let st i = cls.Atpg.status.(i) in
  Alcotest.(check bool) "sa1 undetectable" true (st 0 = Atpg.Undetectable);
  Alcotest.(check bool) "sa0 detectable" true (st 1 = Atpg.Detected);
  Alcotest.(check bool) "str undetectable" true (st 2 = Atpg.Undetectable);
  Alcotest.(check bool) "stf undetectable" true (st 3 = Atpg.Undetectable)

let test_internal_fault_uncontrollable_pattern () =
  let nl, _ = redundant_circuit () in
  (* gate 1 is the NAND2 fed by (a, not a): any entry whose activation is
     only the both-ones pattern is undetectable. *)
  let u = Dfm_cellmodel.Udfm.for_cell "NAND2X1" in
  let both_ones_entries =
    List.mapi (fun i e -> (i, e)) u.Dfm_cellmodel.Udfm.entries
    |> List.filter (fun (_, e) -> e.Dfm_cellmodel.Udfm.activation = [ 3 ])
  in
  Alcotest.(check bool) "such entries exist" true (both_ones_entries <> []);
  let faults =
    Array.of_list
      (List.mapi
         (fun id (entry_idx, _) -> { F.fault_id = id; kind = F.Internal (1, entry_idx); origin })
         both_ones_entries)
  in
  let cls = Atpg.classify nl faults in
  Array.iter
    (fun st -> Alcotest.(check bool) "undetectable" true (st = Atpg.Undetectable))
    cls.Atpg.status

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
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

let brute_stuck_detectable nl (f : F.t) =
  let npis = Array.length nl.N.pis in
  let eval forced m =
    let values = Array.make (N.num_nets nl) false in
    Array.iteri (fun i (_, nid) -> values.(nid) <- (m lsr i) land 1 = 1) nl.N.pis;
    (match f.F.kind, forced with
    | F.Stuck (F.On_net fn, pol), true -> (
        match (N.net nl fn).N.driver with
        | N.Pi _ -> values.(fn) <- (pol = F.Sa1)
        | _ -> ())
    | _ -> ());
    Array.iter
      (fun gid ->
        let g = N.gate nl gid in
        let ins = Array.map (fun n -> values.(n)) g.N.fanins in
        (match f.F.kind, forced with
        | F.Stuck (F.On_pin (fg, pin), pol), true when fg = gid -> ins.(pin) <- (pol = F.Sa1)
        | _ -> ());
        values.(g.N.fanout) <- Dfm_logic.Truthtable.eval g.N.cell.Cell.func ins;
        match f.F.kind, forced with
        | F.Stuck (F.On_net fn, pol), true when fn = g.N.fanout ->
            values.(g.N.fanout) <- (pol = F.Sa1)
        | _ -> ())
      (N.topo_order nl);
    Array.map (fun (_, n) -> values.(n)) nl.N.pos
  in
  let rec try_pattern m =
    m < 1 lsl npis && (eval false m <> eval true m || try_pattern (m + 1))
  in
  try_pattern 0

let prop_classify_vs_brute =
  QCheck.Test.make ~name:"stuck classification matches brute force" ~count:15
    QCheck.(pair (int_range 1 5000) (int_range 3 10))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let faults = ref [] in
      let id = ref 0 in
      Array.iter
        (fun (nn : N.net) ->
          List.iter
            (fun pol ->
              faults := { F.fault_id = !id; kind = F.Stuck (F.On_net nn.N.net_id, pol); origin } :: !faults;
              incr id)
            [ F.Sa0; F.Sa1 ])
        nl.N.nets;
      let faults = Array.of_list (List.rev !faults) in
      let cls = Atpg.classify nl faults in
      Array.for_all
        (fun (f : F.t) ->
          (cls.Atpg.status.(f.F.fault_id) = Atpg.Detected) = brute_stuck_detectable nl f)
        faults)

(* Every test that [generate] produces must actually detect at least one
   fault (checked with the independent fault simulator), and the test set
   must cover every fault classified Detected. *)
let test_generate_tests_work () =
  let nl = random_netlist 42 5 12 in
  let faults = ref [] in
  let id = ref 0 in
  Array.iter
    (fun (nn : N.net) ->
      List.iter
        (fun pol ->
          faults := { F.fault_id = !id; kind = F.Stuck (F.On_net nn.N.net_id, pol); origin } :: !faults;
          incr id)
        [ F.Sa0; F.Sa1 ];
      List.iter
        (fun tr ->
          faults := { F.fault_id = !id; kind = F.Transition (F.On_net nn.N.net_id, tr); origin } :: !faults;
          incr id)
        [ F.Slow_to_rise; F.Slow_to_fall ])
    nl.N.nets;
  let faults = Array.of_list (List.rev !faults) in
  let g = Atpg.generate nl faults in
  Alcotest.(check int) "no cross-check failures" 0 g.Atpg.cross_check_failures;
  Alcotest.(check bool) "has tests" true (g.Atpg.tests <> []);
  (* replay the test set with the fault simulator *)
  let ls = Ls.prepare nl in
  let fs = Fs.prepare nl in
  let detected = Array.make (Array.length faults) false in
  let init_seen = Array.make (Array.length faults) false in
  let stuck_seen = Array.make (Array.length faults) false in
  List.iter
    (fun pattern ->
      let words = Ls.words_of_pattern pattern in
      let good = Ls.run ls words in
      Array.iteri
        (fun fid f ->
          match f.F.kind with
          | F.Transition _ ->
              if Fs.detect_word fs ~good f <> 0L then stuck_seen.(fid) <- true;
              if Fs.init_word fs ~good f <> 0L then init_seen.(fid) <- true;
              if stuck_seen.(fid) && init_seen.(fid) then detected.(fid) <- true
          | _ -> if Fs.detect_word fs ~good f <> 0L then detected.(fid) <- true)
        faults)
    g.Atpg.tests;
  Array.iteri
    (fun fid st ->
      if st = Atpg.Detected then
        Alcotest.(check bool) (Printf.sprintf "fault %d covered by T" fid) true detected.(fid))
    g.Atpg.classification.Atpg.status

let test_counts_consistency () =
  let nl = random_netlist 7 4 10 in
  let faults =
    Array.init (N.num_nets nl) (fun i ->
        { F.fault_id = i; kind = F.Stuck (F.On_net i, F.Sa0); origin })
  in
  let cls = Atpg.classify nl faults in
  let c = cls.Atpg.counts in
  Alcotest.(check int) "partition" c.Atpg.total
    (c.Atpg.detected + c.Atpg.undetectable + c.Atpg.aborted);
  Alcotest.(check int) "internal split" c.Atpg.undetectable
    (c.Atpg.undetectable_internal + c.Atpg.undetectable_external);
  Alcotest.(check bool) "coverage" true
    (Atpg.coverage c >= 0.0 && Atpg.coverage c <= 100.0)

let test_encode_bridge_needs_disagreement () =
  (* Bridging two copies of the same signal is undetectable. *)
  let b = B.create ~name:"br2" lib in
  let x = B.add_pi b "x" in
  let b1 = B.add_gate b ~cell:"BUFX2" [| x |] in
  let b2 = B.add_gate b ~cell:"BUFX2" [| x |] in
  let m = B.add_gate b ~cell:"AND2X2" [| b1; b2 |] in
  B.mark_po b "o" m;
  let nl = B.finish b in
  let ls = Ls.prepare nl in
  let f = { F.fault_id = 0; kind = F.Bridge (b1, b2, F.Wired_and); origin } in
  (match Cold.check ls f with
  | Encode.Undetectable -> ()
  | _ -> Alcotest.fail "equal-signal bridge must be undetectable");
  (* but bridging x with not x is detectable *)
  let b = B.create ~name:"br3" lib in
  let x = B.add_pi b "x" in
  let inv = B.add_gate b ~cell:"INVX1" [| x |] in
  let buf = B.add_gate b ~cell:"BUFX2" [| x |] in
  let o = B.add_gate b ~cell:"AND2X2" [| inv; buf |] in
  B.mark_po b "o" o;
  let nl = B.finish b in
  let ls = Ls.prepare nl in
  let f = { F.fault_id = 0; kind = F.Bridge (inv, buf, F.Wired_or); origin } in
  match Cold.check ls f with
  | Encode.Tests _ -> ()
  | _ -> Alcotest.fail "complement bridge must be detectable"

let test_dff_pin_fault () =
  (* Stuck-at on a flip-flop D pin is detected through the scan path by
     driving the opposite value. *)
  let b = B.create ~name:"dffpin" lib in
  let x = B.add_pi b "x" in
  let q = B.add_gate b ~cell:"DFFPOSX1" [| x |] in
  B.mark_po b "o" q;
  let nl = B.finish b in
  let ls = Ls.prepare nl in
  let f = { F.fault_id = 0; kind = F.Stuck (F.On_pin (0, 0), F.Sa0); origin } in
  match Cold.check ls f with
  | Encode.Tests [ t ] ->
      (* the test must set x = 1 *)
      Alcotest.(check bool) "x = 1" true t.Encode.values.(0)
  | _ -> Alcotest.fail "expected a single test"

(* PODEM (structural) and the SAT engine must agree on every stuck fault,
   and every PODEM test must be confirmed by the fault simulator — three
   independent engines triangulating each other. *)
let prop_podem_agrees_with_sat =
  QCheck.Test.make ~name:"PODEM agrees with the SAT engine" ~count:12
    QCheck.(pair (int_range 1 5000) (int_range 3 10))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let ls = Ls.prepare nl in
      let fs = Fs.prepare nl in
      let ok = ref true in
      Array.iter
        (fun (nn : N.net) ->
          List.iter
            (fun pol ->
              let f = { F.fault_id = 0; kind = F.Stuck (F.On_net nn.N.net_id, pol); origin } in
              let sat_detectable =
                match Cold.check ls f with
                | Encode.Tests _ -> true
                | Encode.Undetectable -> false
                | Encode.Unknown -> not !ok (* force failure *)
              in
              match Podem.check ls f with
              | Podem.Test pattern ->
                  if not sat_detectable then ok := false;
                  let good = Ls.run ls (Ls.words_of_pattern pattern) in
                  if Fs.detect_word fs ~good f = 0L then ok := false
              | Podem.Redundant -> if sat_detectable then ok := false
              | Podem.Aborted -> ())
            [ F.Sa0; F.Sa1 ])
        nl.N.nets;
      !ok)

let test_podem_rejects_other_kinds () =
  let nl = random_netlist 3 3 4 in
  let ls = Ls.prepare nl in
  let f = { F.fault_id = 0; kind = F.Bridge (0, 1, F.Wired_and); origin } in
  try
    ignore (Podem.check ls f);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* Under a bounded budget the escalation ladder's retries are SAT queries
   like any other: the process-wide [dfm_atpg_sat_queries_total] counter
   moves by exactly the classification's [sat_queries], retries included. *)
let test_ladder_queries_counted () =
  let sat_queries () =
    match Dfm_obs.Metrics.find_value "dfm_atpg_sat_queries_total" with
    | Some (Dfm_obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "dfm_atpg_sat_queries_total is not a counter"
  in
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  let before = sat_queries () in
  let d = Dfm_core.Design.implement ~jobs:1 ~max_conflicts:1 nl in
  (match d.Dfm_core.Design.escalation with
  | Some es ->
      Alcotest.(check int) "aborts escalated" 38 (es.Atpg.resolved + es.Atpg.residual);
      Alcotest.(check int) "ladder retries" 80 es.Atpg.retried
  | None -> Alcotest.fail "sparc_ffu at one conflict escalates no abort");
  Alcotest.(check int) "metric moves by the classification's SAT queries"
    d.Dfm_core.Design.classification.Atpg.counts.Atpg.sat_queries
    (sat_queries () - before)

(* A budget below one conflict climbs the ladder from one, so a zero
   budget ends, on the verdicts of the unbounded run. *)
let test_zero_budget_climbs () =
  let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
  let status d = d.Dfm_core.Design.classification.Atpg.status in
  Alcotest.(check bool) "verdicts of the unbounded run" true
    (status (Dfm_core.Design.implement ~jobs:1 ~max_conflicts:0 nl)
    = status (Dfm_core.Design.implement ~jobs:1 nl))

(* [dfm_sim_faults_simulated_total] counts every fault the kernel
   simulates: a certified classification's witness resimulations and test
   generation included. *)
let test_sim_counts_published () =
  let simulated () =
    match Dfm_obs.Metrics.find_value "dfm_sim_faults_simulated_total" with
    | Some (Dfm_obs.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "dfm_sim_faults_simulated_total is not a counter"
  in
  let moved f =
    let before = simulated () in
    ignore (f ());
    simulated () - before
  in
  let nl = Examples.netlist "sparc_ffu_s025.nl" in
  let faults = Dfm_guidelines.Translate.internal_only nl in
  let plain = moved (fun () -> Atpg.classify ~jobs:1 nl faults) in
  let certified = moved (fun () -> Atpg.classify ~jobs:1 ~certify:true nl faults) in
  if certified <= plain then
    Alcotest.failf "certified classification simulated %d faults, plain %d" certified plain;
  if moved (fun () -> Atpg.generate nl faults) = 0 then
    Alcotest.fail "test generation simulated no fault"

let suite =
  [
    Alcotest.test_case "known redundancy" `Quick test_known_redundancy;
    Alcotest.test_case "uncontrollable internal pattern" `Quick test_internal_fault_uncontrollable_pattern;
    QCheck_alcotest.to_alcotest prop_classify_vs_brute;
    Alcotest.test_case "generated tests verified by fault sim" `Quick test_generate_tests_work;
    Alcotest.test_case "counts consistency" `Quick test_counts_consistency;
    Alcotest.test_case "bridge encode" `Quick test_encode_bridge_needs_disagreement;
    Alcotest.test_case "dff pin fault" `Quick test_dff_pin_fault;
    QCheck_alcotest.to_alcotest prop_podem_agrees_with_sat;
    Alcotest.test_case "podem rejects non-stuck" `Quick test_podem_rejects_other_kinds;
    Alcotest.test_case "ladder queries reach the SAT-query metric" `Quick
      test_ladder_queries_counted;
    Alcotest.test_case "zero conflict budget climbs the ladder" `Quick
      test_zero_budget_climbs;
    Alcotest.test_case "every simulated fault is counted" `Quick test_sim_counts_published;
  ]
