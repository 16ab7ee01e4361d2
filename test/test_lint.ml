(* Lint engine tests.

   Tier A: every structural rule demonstrated on a hand-broken netlist
   (Netlist.t is a transparent record, so invalid graphs are constructible
   even though the Builder never produces them), plus reporter/baseline
   behaviour.

   Tier B: dataflow facts (constants through correlation, observability)
   on known circuits, and the load-bearing differential property: a
   classification run with the static pre-SAT filter must be bit-identical
   (statuses and every count except [sat_queries]) to an unfiltered run,
   across random netlists, random fault lists and both job counts. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module F = Dfm_faults.Fault
module Lint = Dfm_lint.Lint
module Df = Dfm_lint.Dataflow
module Atpg = Dfm_atpg.Atpg
module Rng = Dfm_util.Rng

let lib = Dfm_cellmodel.Osu018.library
let table = lazy (Dfm_synth.Mapper.build_table lib)
let origin = { F.category = Dfm_cellmodel.Defect.Via; guideline_index = 0 }

let rule_ids r = List.map (fun f -> f.Lint.rule) r.Lint.findings |> List.sort_uniq compare
let has r id = List.mem id (rule_ids r)

let check_has nl id =
  let r = Lint.check nl in
  Alcotest.(check bool) (id ^ " fires") true (has r id)

let mk_net net_id net_name driver sinks = { N.net_id; net_name; driver; sinks }

let mk_gate gate_id cell fanins fanout =
  {
    N.gate_id;
    gate_name = Printf.sprintf "g%d" gate_id;
    cell = Library.find lib cell;
    fanins;
    fanout;
  }

(* ------------------------------------------------------------------ *)
(* Tier A on hand-made netlists                                        *)
(* ------------------------------------------------------------------ *)

let test_clean () =
  let b = B.create ~name:"clean" lib in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let n = B.add_gate b ~cell:"NAND2X1" [| a; c |] in
  B.mark_po b "y" n;
  let r = Lint.check (B.finish b) in
  Alcotest.(check int) "no findings" 0 (List.length r.Lint.findings)

(* Two inverters feeding each other: n1 = INV n2, n2 = INV n1.  All
   references are consistent, so only the loop rule fires (plus the
   floating-PI warning for the unused input). *)
let loop_netlist () =
  {
    N.name = "loop";
    library = lib;
    pis = [| ("a", 0) |];
    pos = [| ("y", 2) |];
    gates = [| mk_gate 0 "INVX1" [| 2 |] 1; mk_gate 1 "INVX1" [| 1 |] 2 |];
    nets =
      [|
        mk_net 0 "a" (N.Pi 0) [];
        mk_net 1 "n1" (N.Gate_out 0) [ (1, 0) ];
        mk_net 2 "n2" (N.Gate_out 1) [ (0, 0) ];
      |];
  }

let test_comb_loop () =
  let r = Lint.check (loop_netlist ()) in
  Alcotest.(check bool) "L001 fires" true (has r "L001");
  Alcotest.(check bool) "errors nonempty" true (Lint.errors r <> [])

let test_multi_driven () =
  let nl =
    {
      N.name = "multi";
      library = lib;
      pis = [| ("a", 0) |];
      pos = [| ("y", 1) |];
      gates = [| mk_gate 0 "INVX1" [| 0 |] 1; mk_gate 1 "INVX1" [| 0 |] 1 |];
      nets =
        [|
          mk_net 0 "a" (N.Pi 0) [ (0, 0); (1, 0) ];
          mk_net 1 "n" (N.Gate_out 0) [];
        |];
    }
  in
  check_has nl "L002"

let test_broken_reference () =
  let nl =
    {
      N.name = "broken";
      library = lib;
      pis = [| ("a", 0) |];
      pos = [| ("y", 1) |];
      gates = [| mk_gate 0 "INVX1" [| 7 |] 1 |];
      nets = [| mk_net 0 "a" (N.Pi 0) [ (0, 0) ]; mk_net 1 "n" (N.Gate_out 0) [] |];
    }
  in
  check_has nl "L003"

let test_unknown_cell () =
  let fake = { (Library.find lib "INVX1") with Cell.name = "NOPE9" } in
  let nl =
    {
      N.name = "unknown";
      library = lib;
      pis = [| ("a", 0) |];
      pos = [| ("y", 1) |];
      gates = [| { (mk_gate 0 "INVX1" [| 0 |] 1) with N.cell = fake } |];
      nets = [| mk_net 0 "a" (N.Pi 0) [ (0, 0) ]; mk_net 1 "n" (N.Gate_out 0) [] |];
    }
  in
  check_has nl "L004"

let test_arity_mismatch () =
  let nl =
    {
      N.name = "arity";
      library = lib;
      pis = [| ("a", 0) |];
      pos = [| ("y", 1) |];
      gates = [| mk_gate 0 "NAND2X1" [| 0 |] 1 |];
      nets = [| mk_net 0 "a" (N.Pi 0) [ (0, 0) ]; mk_net 1 "n" (N.Gate_out 0) [] |];
    }
  in
  check_has nl "L005"

let test_warnings_on_built_netlist () =
  let b = B.create ~name:"warn" lib in
  let a = B.add_pi b "a" in
  let _floating = B.add_pi b "unused" in
  let k = B.const_net b true in
  let dangling = B.add_gate b ~cell:"NAND2X1" [| a; k |] in
  ignore dangling;
  let po = B.add_gate b ~cell:"INVX1" [| a |] in
  B.mark_po b "y" po;
  let r = Lint.check (B.finish b) in
  Alcotest.(check bool) "L006 dangling" true (has r "L006");
  Alcotest.(check bool) "L007 floating pi" true (has r "L007");
  Alcotest.(check bool) "L008 const fed" true (has r "L008");
  Alcotest.(check bool) "no errors" true (Lint.errors r = [])

let test_fanout_limit () =
  let b = B.create ~name:"fan" lib in
  let a = B.add_pi b "a" in
  let outs = List.init 3 (fun _ -> B.add_gate b ~cell:"INVX1" [| a |]) in
  List.iteri (fun i n -> B.mark_po b (Printf.sprintf "y%d" i) n) outs;
  let nl = B.finish b in
  let config = { Lint.default_config with Lint.fanout_limit = 2 } in
  let r = Lint.check ~config nl in
  Alcotest.(check bool) "L009 fires at limit 2" true (has r "L009");
  let r16 = Lint.check nl in
  Alcotest.(check bool) "quiet at default limit" false (has r16 "L009")

let test_unobservable_and_const () =
  let b = B.create ~name:"tierb" lib in
  let a = B.add_pi b "a" in
  (* XOR(a, a) is constant 0 (L011); feeding it onward keeps the chain
     sinked but never observed (L010 on the first gate, L006 on the last). *)
  let z = B.add_gate b ~cell:"XOR2X1" [| a; a |] in
  let _dead = B.add_gate b ~cell:"INVX1" [| z |] in
  let po = B.add_gate b ~cell:"INVX1" [| a |] in
  B.mark_po b "y" po;
  let r = Lint.check (B.finish b) in
  Alcotest.(check bool) "L010 unobservable" true (has r "L010");
  Alcotest.(check bool) "L011 proven const" true (has r "L011")

let test_rule_restriction () =
  let config = { Lint.default_config with Lint.rules = Some [ "L001" ] } in
  let r = Lint.check ~config (loop_netlist ()) in
  Alcotest.(check (list string)) "only L001" [ "L001" ] (rule_ids r)

(* ------------------------------------------------------------------ *)
(* Reporters and baseline                                              *)
(* ------------------------------------------------------------------ *)

let test_json () =
  let r = Lint.check (loop_netlist ()) in
  let j = Lint.to_json r in
  List.iter
    (fun needle ->
      let found =
        let ln = String.length needle and lj = String.length j in
        let rec go i = i + ln <= lj && (String.sub j i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("json contains " ^ needle) true found)
    [ "\"netlist\":\"loop\""; "\"rule\":\"L001\""; "\"severity\":\"error\"" ]

let test_baseline_roundtrip () =
  let r = Lint.check (loop_netlist ()) in
  Alcotest.(check bool) "has findings" true (r.Lint.findings <> []);
  let base = Lint.baseline_of_string (Lint.baseline_of_report r) in
  let kept, suppressed = Lint.suppress base r in
  Alcotest.(check int) "all suppressed" 0 (List.length kept.Lint.findings);
  Alcotest.(check int) "suppressed count" (List.length r.Lint.findings)
    (List.length suppressed);
  let kept2, _ = Lint.suppress Lint.empty_baseline r in
  Alcotest.(check int) "empty baseline keeps all" (List.length r.Lint.findings)
    (List.length kept2.Lint.findings)

(* ------------------------------------------------------------------ *)
(* Tier B dataflow facts                                               *)
(* ------------------------------------------------------------------ *)

let test_dataflow_constants () =
  let b = B.create ~name:"df" lib in
  let a = B.add_pi b "a" in
  let k0 = B.const_net b false in
  let z1 = B.add_gate b ~cell:"AND2X2" [| a; k0 |] in  (* 0 *)
  let z2 = B.add_gate b ~cell:"XOR2X1" [| a; a |] in   (* 0, via correlation *)
  let na = B.add_gate b ~cell:"INVX1" [| a |] in
  let z3 = B.add_gate b ~cell:"NAND2X1" [| a; na |] in (* 1: a & !a = 0 *)
  let live = B.add_gate b ~cell:"NOR2X1" [| a; na |] in (* 0: a | !a = 1 *)
  List.iteri
    (fun i n -> B.mark_po b (Printf.sprintf "y%d" i) n)
    [ z1; z2; z3; live ];
  let nl = B.finish b in
  let df = Df.analyze nl in
  Alcotest.(check bool) "and w/ const0 is 0" true (Df.value df z1 = Df.V0);
  Alcotest.(check bool) "xor(a,a) is 0" true (Df.value df z2 = Df.V0);
  Alcotest.(check bool) "nand(a,!a) is 1" true (Df.value df z3 = Df.V1);
  Alcotest.(check bool) "nor(a,!a) is 0" true (Df.value df live = Df.V0);
  Alcotest.(check bool) "pi unknown" true (Df.value df a = Df.VX)

let test_dataflow_observability () =
  let b = B.create ~name:"obs" lib in
  let a = B.add_pi b "a" in
  let seen = B.add_gate b ~cell:"INVX1" [| a |] in
  let hidden = B.add_gate b ~cell:"INVX1" [| seen |] in
  B.mark_po b "y" seen;
  let nl = B.finish b in
  let df = Df.analyze nl in
  Alcotest.(check bool) "po observable" true (Df.observable df seen);
  Alcotest.(check bool) "pi reaches obs" true (Df.reaches_observable df a);
  Alcotest.(check bool) "dangling does not" false (Df.reaches_observable df hidden)

(* The one-hot mechanism of the benchmark generators in miniature: two
   mutually exclusive decoder lines into a NAND; its both-ones UDFM
   activations are unreachable and must be proven undetectable. *)
let test_dataflow_onehot_internal () =
  let b = B.create ~name:"onehot" lib in
  let s = B.add_pi b "s" in
  let d = B.add_pi b "d" in
  let ns = B.add_gate b ~cell:"INVX1" [| s |] in
  let hot0 = B.add_gate b ~cell:"AND2X2" [| s; d |] in
  let hot1 = B.add_gate b ~cell:"AND2X2" [| ns; d |] in
  let g = B.add_gate b ~cell:"NAND2X1" [| hot0; hot1 |] in
  B.mark_po b "y" g;
  let nl = B.finish b in
  let gid = match (N.net nl g).N.driver with N.Gate_out i -> i | _ -> assert false in
  let df = Df.analyze nl in
  let u = Dfm_cellmodel.Udfm.for_cell "NAND2X1" in
  let entries = List.mapi (fun i e -> (i, e.Dfm_cellmodel.Udfm.activation)) u.Dfm_cellmodel.Udfm.entries in
  let both_ones = List.filter (fun (_, act) -> act = [ 3 ]) entries in
  Alcotest.(check bool) "both-ones entries exist" true (both_ones <> []);
  List.iter
    (fun (idx, _) ->
      let f = { F.fault_id = 0; kind = F.Internal (gid, idx); origin } in
      Alcotest.(check bool) "one-hot internal fault filtered" true
        (Df.prove_undetectable df f))
    both_ones;
  (* Sanity: a reachable activation must NOT be filtered. *)
  List.iter
    (fun (idx, act) ->
      if List.exists (fun m -> m <> 3) act then
        let f = { F.fault_id = 0; kind = F.Internal (gid, idx); origin } in
        Alcotest.(check bool) "reachable activation kept" false
          (Df.prove_undetectable df f))
    entries

(* ------------------------------------------------------------------ *)
(* Differential soundness property                                     *)
(* ------------------------------------------------------------------ *)

(* Random netlists seeded with the shapes the filter reasons about:
   constant drivers, duplicated fanins (the generator picks nets with
   replacement) and occasional flip-flops. *)
let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"lintprop" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  nets := B.const_net b false :: B.const_net b true :: !nets;
  let cells =
    [| "INVX1"; "NAND2X1"; "NOR2X1"; "XOR2X1"; "XNOR2X1"; "AND2X2"; "AOI21X1"; "OAI21X1"; "MUX2X1" |]
  in
  let dff = Dfm_cellmodel.Osu018.dff_name in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = if Rng.chance rng 0.12 then dff else Rng.pick rng cells in
    let c = Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 4 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

(* Every fault kind over the netlist, capped per category. *)
let fault_list rng nl =
  let faults = ref [] in
  let id = ref 0 in
  let push kind =
    faults := { F.fault_id = !id; kind; origin } :: !faults;
    incr id
  in
  Array.iter
    (fun (nn : N.net) ->
      push (F.Stuck (F.On_net nn.N.net_id, F.Sa0));
      push (F.Stuck (F.On_net nn.N.net_id, F.Sa1));
      if Rng.chance rng 0.3 then begin
        push (F.Transition (F.On_net nn.N.net_id, F.Slow_to_rise));
        push (F.Transition (F.On_net nn.N.net_id, F.Slow_to_fall))
      end)
    nl.N.nets;
  Array.iter
    (fun (g : N.gate) ->
      let pin = Rng.int rng (Array.length g.N.fanins) in
      push (F.Stuck (F.On_pin (g.N.gate_id, pin), F.Sa0));
      push (F.Stuck (F.On_pin (g.N.gate_id, pin), F.Sa1));
      let u = Dfm_cellmodel.Udfm.for_cell g.N.cell.Cell.name in
      List.iteri
        (fun idx _ -> if idx < 4 then push (F.Internal (g.N.gate_id, idx)))
        u.Dfm_cellmodel.Udfm.entries)
    nl.N.gates;
  let nn = N.num_nets nl in
  for _ = 1 to 5 do
    let n1 = Rng.int rng nn and n2 = Rng.int rng nn in
    if n1 <> n2 then
      push (F.Bridge (n1, n2, if Rng.chance rng 0.5 then F.Wired_and else F.Wired_or))
  done;
  Array.of_list (List.rev !faults)

let counts_sans_sat_queries (c : Atpg.counts) =
  (c.Atpg.total, c.Atpg.detected, c.Atpg.undetectable, c.Atpg.aborted,
   c.Atpg.undetectable_internal, c.Atpg.undetectable_external)

let prop_filter_is_invisible =
  QCheck.Test.make ~name:"static filter never changes a verdict" ~count:12
    QCheck.(pair (int_range 1 100000) (int_range 8 35))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 5 ngates in
      let rng = Rng.create (seed + 7) in
      let faults = fault_list rng nl in
      let df = Df.analyze nl in
      let filter = Df.prove_undetectable df in
      let plain = Atpg.classify ~jobs:1 nl faults in
      let filtered = Atpg.classify ~jobs:1 ~static_filter:filter nl faults in
      let filtered4 = Atpg.classify ~jobs:4 ~static_filter:filter nl faults in
      plain.Atpg.status = filtered.Atpg.status
      && counts_sans_sat_queries plain.Atpg.counts
         = counts_sans_sat_queries filtered.Atpg.counts
      && filtered.Atpg.counts.Atpg.sat_queries <= plain.Atpg.counts.Atpg.sat_queries
      && filtered4.Atpg.status = filtered.Atpg.status
      && filtered4.Atpg.counts = filtered.Atpg.counts)

(* Gate replacements on top: remapping a region (what the resynthesis loop
   does) must preserve the invariant on the rewritten netlist too. *)
let prop_filter_after_replacement =
  QCheck.Test.make ~name:"static filter invisible after region remap" ~count:6
    QCheck.(pair (int_range 1 100000) (int_range 12 30))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 5 ngates in
      let comb = N.comb_gates nl in
      QCheck.assume (List.length comb >= 2);
      let rng = Rng.create (seed lxor 0x5EED) in
      let region =
        List.filteri (fun i _ -> i < 1 + Rng.int rng 3) (List.map (fun g -> g.N.gate_id) comb)
      in
      let nl' =
        try
          Dfm_synth.Convert.remap_region ~goal:`Area ~sweep:true nl ~gates:region
            ~table:(Lazy.force table)
        with Dfm_synth.Mapper.Unmappable _ -> nl
      in
      let faults = fault_list rng nl' in
      let df = Df.analyze nl' in
      let filter = Df.prove_undetectable df in
      let plain = Atpg.classify ~jobs:1 nl' faults in
      let filtered = Atpg.classify ~jobs:1 ~static_filter:filter nl' faults in
      plain.Atpg.status = filtered.Atpg.status
      && counts_sans_sat_queries plain.Atpg.counts
         = counts_sans_sat_queries filtered.Atpg.counts)

(* The properties above would pass vacuously if the filter never fired:
   on a fixed-seed corpus of the same generator it must prove some faults,
   and every fault it proves must classify Undetectable. *)
let test_filter_fires_on_corpus () =
  let filtered = ref 0 in
  for seed = 1 to 12 do
    let nl = random_netlist (seed * 7919) 5 (8 + (seed * 5 mod 28)) in
    let faults = fault_list (Rng.create (seed + 7)) nl in
    let filter = Df.prove_undetectable (Df.analyze nl) in
    let plain = Atpg.classify ~jobs:1 nl faults in
    Array.iteri
      (fun fid f ->
        if filter f then begin
          incr filtered;
          if plain.Atpg.status.(fid) <> Atpg.Undetectable then
            Alcotest.failf "seed %d: filtered fault %s is not undetectable" seed
              (F.describe nl f)
        end)
      faults
  done;
  Alcotest.(check bool) "filter proved >0 faults across the corpus" true (!filtered > 0)

let suite =
  [
    Alcotest.test_case "clean netlist" `Quick test_clean;
    Alcotest.test_case "L001 comb loop" `Quick test_comb_loop;
    Alcotest.test_case "L002 multi-driven" `Quick test_multi_driven;
    Alcotest.test_case "L003 broken reference" `Quick test_broken_reference;
    Alcotest.test_case "L004 unknown cell" `Quick test_unknown_cell;
    Alcotest.test_case "L005 arity mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "L006/L007/L008 warnings" `Quick test_warnings_on_built_netlist;
    Alcotest.test_case "L009 fanout limit" `Quick test_fanout_limit;
    Alcotest.test_case "L010/L011 tier-B rules" `Quick test_unobservable_and_const;
    Alcotest.test_case "rule restriction" `Quick test_rule_restriction;
    Alcotest.test_case "json reporter" `Quick test_json;
    Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "dataflow constants" `Quick test_dataflow_constants;
    Alcotest.test_case "dataflow observability" `Quick test_dataflow_observability;
    Alcotest.test_case "one-hot internal faults" `Quick test_dataflow_onehot_internal;
    QCheck_alcotest.to_alcotest prop_filter_is_invisible;
    QCheck_alcotest.to_alcotest prop_filter_after_replacement;
    Alcotest.test_case "filter fires on corpus" `Quick test_filter_fires_on_corpus;
  ]
