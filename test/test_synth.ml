(* Tests for dfm_synth: AIG construction, SAT sweeping, technology mapping. *)

module Aig = Dfm_synth.Aig
module Mapper = Dfm_synth.Mapper
module Convert = Dfm_synth.Convert
module Sweep = Dfm_synth.Sweep
module N = Dfm_netlist.Netlist
module B = N.Builder
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module Rng = Dfm_util.Rng

let lib = Dfm_cellmodel.Osu018.library
let table = lazy (Mapper.build_table lib)

let test_aig_simplifications () =
  let aig = Aig.create () in
  let x = Aig.input aig "x" in
  let y = Aig.input aig "y" in
  Alcotest.(check int) "x & 0" Aig.lit_false (Aig.and_ aig x Aig.lit_false);
  Alcotest.(check int) "x & 1" x (Aig.and_ aig x Aig.lit_true);
  Alcotest.(check int) "x & x" x (Aig.and_ aig x x);
  Alcotest.(check int) "x & ~x" Aig.lit_false (Aig.and_ aig x (Aig.not_ x));
  let a1 = Aig.and_ aig x y and a2 = Aig.and_ aig y x in
  Alcotest.(check int) "strashed" a1 a2

let test_aig_eval () =
  let aig = Aig.create () in
  let x = Aig.input aig "x" in
  let y = Aig.input aig "y" in
  let f = Aig.xor_ aig x y in
  let env vx vy = function "x" -> vx | "y" -> vy | _ -> assert false in
  Alcotest.(check bool) "xor 10" true (Aig.eval aig (env true false) f);
  Alcotest.(check bool) "xor 11" false (Aig.eval aig (env true true) f);
  let m = Aig.mux aig ~sel:x y (Aig.not_ y) in
  Alcotest.(check bool) "mux sel=1 -> ~y" true (Aig.eval aig (env true false) m)

let random_netlist seed npis ngates =
  let rng = Rng.create seed in
  let b = B.create ~name:"rand" lib in
  let nets = ref [] in
  for i = 0 to npis - 1 do
    nets := B.add_pi b (Printf.sprintf "i%d" i) :: !nets
  done;
  let cells =
    [| "INVX1"; "NAND2X1"; "NAND3X1"; "NOR2X1"; "AND2X2"; "XOR2X1"; "AOI21X1"; "OAI22X1";
       "MUX2X1"; "NAND4X1"; "AOI211X1"; "XNOR2X1" |]
  in
  for _ = 1 to ngates do
    let arr = Array.of_list !nets in
    let cname = Rng.pick rng cells in
    let c = Library.find lib cname in
    let fanins = Array.init (Cell.arity c) (fun _ -> Rng.pick rng arr) in
    nets := B.add_gate b ~cell:cname fanins :: !nets
  done;
  List.iteri (fun i n -> if i < 4 then B.mark_po b (Printf.sprintf "o%d" i) n) !nets;
  B.finish b

let restricted_names =
  [ "XOR2X1"; "XNOR2X1"; "NAND4X1"; "NOR4X1"; "AOI22X1"; "OAI22X1"; "AOI211X1" ]

let prop_remap_equivalent_full_lib =
  QCheck.Test.make ~name:"remap on full library preserves function" ~count:25
    QCheck.(pair (int_range 1 100000) (int_range 3 14))
    (fun (seed, ngates) ->
      let nl = random_netlist seed (2 + (seed mod 4)) ngates in
      let m = Convert.remap nl ~table:(Lazy.force table) in
      Equiv.check nl m = Equiv.Equivalent)

let prop_remap_equivalent_restricted =
  QCheck.Test.make ~name:"remap on restricted library preserves function and exclusions"
    ~count:25
    QCheck.(pair (int_range 1 100000) (int_range 3 14))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let restricted = Library.restrict lib ~excluded:restricted_names in
      let m = Convert.remap nl ~table:(Mapper.build_table restricted) in
      Equiv.check nl m = Equiv.Equivalent
      && Array.for_all
           (fun (g : N.gate) -> not (List.mem g.N.cell.Cell.name restricted_names))
           m.N.gates)

let prop_remap_area_goal_equivalent =
  QCheck.Test.make ~name:"area-goal remap preserves function" ~count:15
    QCheck.(int_range 1 100000)
    (fun seed ->
      let nl = random_netlist seed 4 10 in
      let m = Convert.remap ~goal:`Area nl ~table:(Lazy.force table) in
      Equiv.check nl m = Equiv.Equivalent)

let test_unmappable_without_inverter () =
  (* A library without any inverting cell cannot express an inverter. *)
  let non_inverting =
    Library.filter lib (fun c -> List.mem c.Cell.name [ "AND2X2"; "OR2X2"; "BUFX2" ])
  in
  let b = B.create ~name:"needinv" lib in
  let x = B.add_pi b "x" in
  let y = B.add_gate b ~cell:"INVX1" [| x |] in
  B.mark_po b "o" y;
  let nl = B.finish b in
  try
    ignore (Convert.remap nl ~table:(Mapper.build_table non_inverting));
    Alcotest.fail "expected Unmappable"
  with Mapper.Unmappable _ -> ()

let test_can_express_basics () =
  Alcotest.(check bool) "full lib" true (Mapper.can_express_basics (Lazy.force table));
  let only_nand = Library.filter lib (fun c -> c.Cell.name = "NAND2X1") in
  Alcotest.(check bool) "nand2 alone" true
    (Mapper.can_express_basics (Mapper.build_table only_nand));
  let only_buf = Library.filter lib (fun c -> c.Cell.name = "BUFX2") in
  Alcotest.(check bool) "buffer alone" false
    (Mapper.can_express_basics (Mapper.build_table only_buf))

(* A table derived by [Mapper.restrict] maps exactly like one built from
   the restricted library.  Walk every prefix of the resynthesis exclusion
   order, deriving one excluded cell at a time as a campaign does, and remap
   regions of both committed example blocks with the derived and the built
   table: the netlists must match byte for byte, or both be unmappable.
   The one-input gates form a region of their own: it stays mappable while
   any inverter is left, so it shows which inverter each table picks. *)
let test_derived_table_matches_built () =
  let regions =
    List.concat_map
      (fun file ->
        let nl = Examples.netlist file in
        let comb = N.comb_gates nl in
        let ids = List.map (fun (g : N.gate) -> g.N.gate_id) in
        let n = List.length comb in
        [
          (file, nl, ids (List.filteri (fun i _ -> i < 40) comb));
          (file, nl, ids (List.filteri (fun i _ -> i >= n - 40) comb));
          (file, nl, ids (List.filter (fun (g : N.gate) -> Cell.arity g.N.cell = 1) comb));
        ])
      [ "sparc_ffu_s025.nl"; "sparc_spu_s025.nl" ]
  in
  let remap table (_, nl, gates) =
    match Convert.remap_region ~goal:`Area nl ~gates ~table with
    | m -> Dfm_netlist.Netlist_io.to_string m
    | exception Mapper.Unmappable _ -> "unmappable"
  in
  ignore
    (List.fold_left
       (fun (derived, prefix) (cell : Cell.t) ->
         let prefix = cell.Cell.name :: prefix in
         let derived = Mapper.restrict derived ~excluded:[ cell.Cell.name ] in
         let built = Mapper.build_table (Library.restrict lib ~excluded:prefix) in
         let label =
           Printf.sprintf "%d cells excluded (last %s)" (List.length prefix) cell.Cell.name
         in
         Alcotest.(check bool)
           (label ^ ": can_express_basics")
           (Mapper.can_express_basics built) (Mapper.can_express_basics derived);
         List.iter
           (fun ((file, _, _) as r) ->
             if remap built r <> remap derived r then
               Alcotest.failf "%s: %s maps differently with the derived table" label file)
           regions;
         (derived, prefix))
       (Lazy.force table, [])
       (Dfm_core.Resynth.cells_by_internal_faults lib))

(* Sweeping removes provably constant logic. *)
let test_sweep_finds_constants () =
  let aig = Aig.create () in
  let s0 = Aig.input aig "s0" in
  let s1 = Aig.input aig "s1" in
  let d = Aig.input aig "d" in
  (* one-hot decoder lines *)
  let line0 = Aig.and_ aig (Aig.not_ s0) (Aig.not_ s1) in
  let line1 = Aig.and_ aig s0 (Aig.not_ s1) in
  (* the exclusive pair anded together: provably constant 0 *)
  let dead = Aig.and_ aig line0 line1 in
  let out = Aig.or_ aig dead d in  (* == d *)
  let swept, outs = Sweep.sweep aig ~outputs:[ ("o", out) ] in
  let o = List.assoc "o" outs in
  (* after sweeping, o should be literally the input d *)
  let d' =
    List.assoc "d" (Aig.inputs swept)
  in
  Alcotest.(check int) "simplified to d" d' o

let test_sweep_merges_equivalent_nodes () =
  let aig = Aig.create () in
  let x = Aig.input aig "x" in
  let y = Aig.input aig "y" in
  (* two structurally different forms of the same function:
     or(x,y) vs not(and(not x, not y)) built through different paths *)
  let f1 = Aig.or_ aig x y in
  let f2 = Aig.not_ (Aig.and_ aig (Aig.not_ x) (Aig.not_ y)) in
  (* strashing already merges those; build a harder pair: mux(x, y, y) = y *)
  let f3 = Aig.mux aig ~sel:x y y in
  ignore f1;
  ignore f2;
  let swept, outs = Sweep.sweep aig ~outputs:[ ("a", f3); ("b", y) ] in
  ignore swept;
  Alcotest.(check int) "mux(x,y,y) == y" (List.assoc "b" outs) (List.assoc "a" outs)

let prop_sweep_preserves_function =
  QCheck.Test.make ~name:"sweep preserves every output function" ~count:20
    QCheck.(pair (int_range 1 100000) (int_range 4 14))
    (fun (seed, ngates) ->
      let nl = random_netlist seed 4 ngates in
      let aig, outputs = Convert.to_aig nl in
      let swept, outputs' = Sweep.sweep aig ~outputs in
      (* compare by exhaustive evaluation over the 4 PIs *)
      let ok = ref true in
      for m = 0 to 15 do
        let env name =
          (* input names are i0..i3 *)
          let idx = int_of_string (String.sub name 1 (String.length name - 1)) in
          (m lsr idx) land 1 = 1
        in
        List.iter2
          (fun (n1, l1) (n2, l2) ->
            assert (n1 = n2);
            if Aig.eval aig env l1 <> Aig.eval swept env l2 then ok := false)
          outputs outputs'
      done;
      !ok)

let test_remap_region_keeps_rest () =
  let nl = random_netlist 5 4 10 in
  let region = [ (List.hd (N.comb_gates nl)).N.gate_id ] in
  let m = Convert.remap_region nl ~gates:region ~table:(Lazy.force table) in
  (match Equiv.check nl m with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "not equivalent");
  (* gates outside the region keep their instance names *)
  let names t = Array.to_list t.N.gates |> List.map (fun g -> g.N.gate_name) in
  let kept = List.filter (fun n -> List.mem n (names nl)) (names m) in
  Alcotest.(check bool) "most names survive" true (List.length kept >= N.num_gates nl - 1)

let test_remap_full_preserves_flops () =
  let b = B.create ~name:"seq" lib in
  let en = B.add_pi b "en" in
  let q = B.declare_net b "q" in
  let d = B.add_gate b ~cell:"XOR2X1" [| q; en |] in
  B.add_gate_driving b ~cell:"DFFPOSX1" [| d |] q;
  B.mark_po b "o" q;
  let nl = B.finish b in
  let m =
    Convert.remap_full nl ~table:(Mapper.restrict (Lazy.force table) ~excluded:[ "XOR2X1" ])
  in
  Alcotest.(check int) "flop preserved" 1 (List.length (N.seq_gates m));
  match Equiv.check nl m with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "sequential remap not equivalent"

let suite =
  [
    Alcotest.test_case "aig simplifications" `Quick test_aig_simplifications;
    Alcotest.test_case "aig eval" `Quick test_aig_eval;
    QCheck_alcotest.to_alcotest prop_remap_equivalent_full_lib;
    QCheck_alcotest.to_alcotest prop_remap_equivalent_restricted;
    QCheck_alcotest.to_alcotest prop_remap_area_goal_equivalent;
    Alcotest.test_case "unmappable without inverter" `Quick test_unmappable_without_inverter;
    Alcotest.test_case "can_express_basics" `Quick test_can_express_basics;
    Alcotest.test_case "derived table maps like a built one" `Quick
      test_derived_table_matches_built;
    Alcotest.test_case "sweep finds constants" `Quick test_sweep_finds_constants;
    Alcotest.test_case "sweep merges equivalents" `Quick test_sweep_merges_equivalent_nodes;
    QCheck_alcotest.to_alcotest prop_sweep_preserves_function;
    Alcotest.test_case "remap region keeps rest" `Quick test_remap_region_keeps_rest;
    Alcotest.test_case "remap full preserves flops" `Quick test_remap_full_preserves_flops;
  ]
