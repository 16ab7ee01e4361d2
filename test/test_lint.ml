(* Lint engine tests.

   Tier A: every structural rule demonstrated on a hand-broken netlist
   (Netlist.t is a transparent record, so invalid graphs are constructible
   even though the Builder never produces them), plus reporter/baseline
   behaviour.

   Tier B: dataflow facts (constants through correlation, observability)
   on known circuits. *)

module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module Lint = Dfm_lint.Lint
module Df = Dfm_lint.Dataflow

let lib = Dfm_cellmodel.Osu018.library

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
  ]
