(* End-to-end tests of the paper's procedure: the two-phase resynthesis flow
   on a small block, its invariants, and the SAT equivalence checker. *)

module N = Dfm_netlist.Netlist
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Atpg = Dfm_atpg.Atpg
module Cell = Dfm_netlist.Cell

let scale = 0.4

let result =
  lazy
    (let nl = Dfm_circuits.Circuits.build ~scale "sparc_spu" in
     let d0 = Design.implement nl in
     (nl, d0, Resynth.run d0))

let test_cell_order () =
  let order = Resynth.cells_by_internal_faults Dfm_cellmodel.Osu018.library in
  let counts =
    List.map (fun (c : Cell.t) -> Dfm_cellmodel.Udfm.internal_fault_count c.Cell.name) order
  in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> compare b a) counts = counts);
  Alcotest.(check bool) "no flop" true
    (List.for_all (fun (c : Cell.t) -> not c.Cell.is_seq) order)

let test_u_decreases () =
  let _, d0, r = Lazy.force result in
  let m0 = Design.metrics d0 and m1 = Design.metrics r.Resynth.final in
  Alcotest.(check bool) "U decreased" true (m1.Design.u < m0.Design.u);
  Alcotest.(check bool) "coverage improved" true (m1.Design.coverage > m0.Design.coverage);
  Alcotest.(check bool) "Smax decreased" true (m1.Design.s_max < m0.Design.s_max)

let test_constraints_maintained () =
  let _, d0, r = Lazy.force result in
  let m0 = Design.metrics d0 and m1 = Design.metrics r.Resynth.final in
  (* q <= 5: at most 5% increase in delay and power; die area unchanged. *)
  Alcotest.(check bool) "delay budget" true (m1.Design.delay <= m0.Design.delay *. 1.05 +. 1e-9);
  Alcotest.(check bool) "power budget" true (m1.Design.power <= m0.Design.power *. 1.05 +. 1e-9);
  let die0 = r.Resynth.initial.Design.floorplan and die1 = r.Resynth.final.Design.floorplan in
  Alcotest.(check bool) "same floorplan" true (die0 == die1)

let test_function_preserved () =
  let nl, _, r = Lazy.force result in
  match Dfm_atpg.Equiv_sat.check nl r.Resynth.final.Design.netlist with
  | Dfm_atpg.Equiv_sat.Equivalent -> ()
  | Dfm_atpg.Equiv_sat.Different l -> Alcotest.failf "differs at %s" l
  | Dfm_atpg.Equiv_sat.Interface_mismatch m -> Alcotest.failf "interface: %s" m

let test_trace_monotone_on_accepts () =
  let _, d0, r = Lazy.force result in
  (* Across accepted steps, total U never increases (the paper's
     monotonicity requirement). *)
  let u0 = (Design.metrics d0).Design.u in
  let accepts =
    List.filter
      (fun e ->
        e.Resynth.ev_action = "accept" || e.Resynth.ev_action = "backtrack-accept")
      r.Resynth.trace
  in
  Alcotest.(check int) "accept count" r.Resynth.accepted (List.length accepts);
  let rec walk last = function
    | [] -> ()
    | e :: rest ->
        Alcotest.(check bool) "U monotone" true (e.Resynth.ev_u <= last);
        walk e.Resynth.ev_u rest
  in
  walk u0 accepts

let test_trace_q_monotone () =
  let _, _, r = Lazy.force result in
  let qs = List.map (fun e -> e.Resynth.ev_q) r.Resynth.trace in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "q nondecreasing in trace" true (sorted qs)

let netlist_hash (r : Resynth.result) =
  Printf.sprintf "%Lx"
    (Dfm_util.Hash64.of_string (Dfm_netlist.Netlist_io.to_string r.Resynth.final.Design.netlist))

(* Every trace event with all nine fields, floats in hex so that no digit
   is lost. *)
let trace_hash (r : Resynth.result) =
  List.map
    (fun (e : Resynth.event) ->
      Printf.sprintf "%d %d %s %s %d %d %d %h %h" e.Resynth.ev_q e.Resynth.ev_phase
        (Option.value ~default:"-" e.Resynth.ev_cell)
        e.Resynth.ev_action e.Resynth.ev_u e.Resynth.ev_u_internal e.Resynth.ev_smax
        e.Resynth.ev_delay e.Resynth.ev_power)
    r.Resynth.trace
  |> String.concat "\n" |> Dfm_util.Hash64.of_string |> Printf.sprintf "%Lx"

(* The campaign's output, pinned: values recorded from this sparc_spu@0.4
   campaign (the byte-diff rules elsewhere compare two runs of one build;
   this compares against a recorded run).  A change to mapping, candidate
   order or search that alters any step shows up here.  Every value is the
   same at any job count, so [REPRO_JOBS] cannot move it. *)
let test_pinned_campaign () =
  let _, _, r = Lazy.force result in
  Alcotest.(check string) "final netlist hash" "839b01d4abe17514" (netlist_hash r);
  Alcotest.(check (list int))
    "accepted, implement calls, SAT queries, conflicts, decisions, propagations"
    [ 3; 12; 1_158; 9_973; 49_284; 208_628 ]
    [
      r.Resynth.accepted;
      r.Resynth.effort.Resynth.implement_calls;
      r.Resynth.effort.Resynth.sat_queries;
      r.Resynth.effort.Resynth.conflicts;
      r.Resynth.effort.Resynth.decisions;
      r.Resynth.effort.Resynth.propagations;
    ];
  Alcotest.(check (list string)) "trace"
    [
      "q=0 phase 2 XOR2X1 backtrack-accept U=40";
      "q=0 phase 2 XOR2X1 backtrack-accept U=33";
      "q=0 phase 2 XOR2X1 backtrack-accept U=14";
    ]
    (List.map
       (fun (e : Resynth.event) ->
         Printf.sprintf "q=%d phase %d %s %s U=%d" e.Resynth.ev_q e.Resynth.ev_phase
           (Option.value ~default:"-" e.Resynth.ev_cell)
           e.Resynth.ev_action e.Resynth.ev_u)
       r.Resynth.trace)

(* Two more campaigns pinned like sparc_spu@0.4, each with its whole trace.
   tv80@0.5 accepts at q = 1 a candidate (XNOR2X1) that q = 0 found over
   budget on the same design point; aes_core@0.5 rejects one AND2X2
   candidate after physical design at every q.  The netlist, accept count
   and trace must not depend on how often a candidate is evaluated; the
   effort counts are the work done. *)
let pinned_campaign name ~scale ~netlist ~accepted ~trace ~effort () =
  let r = Resynth.run (Design.implement (Dfm_circuits.Circuits.build ~scale name)) in
  Alcotest.(check string) "final netlist hash" netlist (netlist_hash r);
  Alcotest.(check int) "accepted" accepted r.Resynth.accepted;
  Alcotest.(check string) "trace hash" trace (trace_hash r);
  Alcotest.(check (list int))
    "implement calls, SAT queries, conflicts, decisions, propagations" effort
    [
      r.Resynth.effort.Resynth.implement_calls;
      r.Resynth.effort.Resynth.sat_queries;
      r.Resynth.effort.Resynth.conflicts;
      r.Resynth.effort.Resynth.decisions;
      r.Resynth.effort.Resynth.propagations;
    ]

let test_pinned_tv80 =
  pinned_campaign "tv80" ~scale:0.5 ~netlist:"decc3127979f232c" ~accepted:2
    ~trace:"beb83e01901cf5cf" ~effort:[ 5; 2_731; 6_724; 117_659; 346_873 ]

let test_pinned_aes_core =
  pinned_campaign "aes_core" ~scale:0.5 ~netlist:"95bdc5230e5be895" ~accepted:1
    ~trace:"e0acfd03bf82bacb" ~effort:[ 2; 859; 73_204; 222_540; 2_338_146 ]

let test_equiv_sat_detects_differences () =
  (* sanity: the checker is not a rubber stamp *)
  let lib = Dfm_cellmodel.Osu018.library in
  let mk invert =
    let b = N.Builder.create ~name:"eq" lib in
    let x = N.Builder.add_pi b "x" in
    let y = N.Builder.add_pi b "y" in
    let g =
      N.Builder.add_gate b ~cell:(if invert then "NAND2X1" else "AND2X2") [| x; y |]
    in
    N.Builder.mark_po b "o" g;
    N.Builder.finish b
  in
  let checked () = (Dfm_sat.Cert.totals ()).Dfm_sat.Cert.checked in
  List.iter
    (fun certify ->
      let c0 = checked () in
      (match Dfm_atpg.Equiv_sat.check ~certify (mk false) (mk true) with
      | Dfm_atpg.Equiv_sat.Different "o" -> ()
      | _ -> Alcotest.fail "expected difference at o");
      (match Dfm_atpg.Equiv_sat.check ~certify (mk false) (mk false) with
      | Dfm_atpg.Equiv_sat.Equivalent -> ()
      | _ -> Alcotest.fail "expected equivalence");
      (* certified: one model check for the differing pair, one proof
         replay for the equivalent pair *)
      Alcotest.(check int)
        (Printf.sprintf "certificate checks (certify=%b)" certify)
        (if certify then 2 else 0)
        (checked () - c0))
    [ false; true ]

let test_design_metrics_consistent () =
  let _, d0, _ = Lazy.force result in
  let m = Design.metrics d0 in
  Alcotest.(check int) "u split" m.Design.u (m.Design.u_internal + m.Design.u_external);
  Alcotest.(check bool) "smax <= u" true (m.Design.s_max <= m.Design.u);
  Alcotest.(check bool) "gmax <= gu" true (m.Design.g_max <= m.Design.g_u);
  Alcotest.(check (float 1e-6)) "coverage formula"
    (100.0 *. (1.0 -. (float_of_int m.Design.u /. float_of_int m.Design.f)))
    m.Design.coverage

let test_dppm_model () =
  let _, d0, r = Lazy.force result in
  let dppm0 = Dfm_core.Dppm.escapes_dppm d0 in
  let dppm1 = Dfm_core.Dppm.escapes_dppm r.Resynth.final in
  Alcotest.(check bool) "positive" true (dppm0 > 0.0);
  Alcotest.(check bool) "resynthesis reduces escapes" true (dppm1 < dppm0);
  (* breakdown sums to roughly the total (independence correction is tiny) *)
  let parts = Dfm_core.Dppm.breakdown d0 in
  let total_sites =
    List.fold_left (fun a (_, n, _) -> a + n) 0 parts
  in
  Alcotest.(check int) "sites = U" (Design.metrics d0).Design.u total_sites;
  let linear = List.fold_left (fun a (_, _, ppm) -> a +. ppm) 0.0 parts in
  Alcotest.(check bool) "linear approx close" true
    (Float.abs (linear -. dppm0) /. Float.max 1.0 dppm0 < 0.05)

let test_guideline_table_sums () =
  let _, d0, _ = Lazy.force result in
  let rows = Dfm_core.Report.guideline_table d0 in
  let m = Design.metrics d0 in
  let f_total = List.fold_left (fun a (r : Dfm_core.Report.guideline_row) -> a + r.Dfm_core.Report.n_faults) 0 rows in
  let u_total = List.fold_left (fun a (r : Dfm_core.Report.guideline_row) -> a + r.Dfm_core.Report.n_undetectable) 0 rows in
  Alcotest.(check int) "faults partition by guideline" m.Design.f f_total;
  Alcotest.(check int) "undetectable partition" m.Design.u u_total;
  (* sorted by undetectable count *)
  let rec sorted = function
    | (a : Dfm_core.Report.guideline_row) :: (b :: _ as rest) ->
        a.Dfm_core.Report.n_undetectable >= b.Dfm_core.Report.n_undetectable && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted desc" true (sorted rows)

let test_fig2_series_shape () =
  let _, d0, r = Lazy.force result in
  let series = Dfm_core.Report.fig2_series r in
  (match series with
  | first :: _ ->
      Alcotest.(check int) "starts at original U" (Design.metrics d0).Design.u first.Dfm_core.Report.u
  | [] -> Alcotest.fail "empty series");
  Alcotest.(check int) "one point per accepted step + origin"
    (r.Resynth.accepted + 1) (List.length series)

(* Table II oracle on a full-size block.  The small-scale cases above all
   reach their final design even when candidates are wrongly rejected; at
   scale 1.0 sparc_tlu has one dominant cluster (U 1896, %Smax_all 12.6%)
   that the procedure only dissolves if its remaps are accepted, so a
   stalled campaign shows up here as U not falling.  Asserts the paper's
   shape: U falls at least 5x, %Smax_all ends at or below p1 = 1%, delay and
   power stay within +5%, the die is the original one, and the function is
   proven unchanged. *)
let test_table2_sparc_tlu () =
  let nl = Dfm_circuits.Circuits.build ~scale:1.0 "sparc_tlu" in
  let r = Resynth.run (Design.implement nl) in
  let m0 = Design.metrics r.Resynth.initial and m1 = Design.metrics r.Resynth.final in
  if m1.Design.u * 5 > m0.Design.u then
    Alcotest.failf "U %d -> %d: less than a 5x reduction" m0.Design.u m1.Design.u;
  if m1.Design.pct_smax_of_f > 1.0 then
    Alcotest.failf "final %%Smax_all %.2f%% above p1 = 1%%" m1.Design.pct_smax_of_f;
  Alcotest.(check bool) "delay within +5%" true
    (m1.Design.delay <= m0.Design.delay *. 1.05 +. 1e-9);
  Alcotest.(check bool) "power within +5%" true
    (m1.Design.power <= m0.Design.power *. 1.05 +. 1e-9);
  Alcotest.(check bool) "same floorplan" true
    (r.Resynth.initial.Design.floorplan == r.Resynth.final.Design.floorplan);
  match Dfm_atpg.Equiv_sat.check nl r.Resynth.final.Design.netlist with
  | Dfm_atpg.Equiv_sat.Equivalent -> ()
  | Dfm_atpg.Equiv_sat.Different l -> Alcotest.failf "differs at %s" l
  | Dfm_atpg.Equiv_sat.Interface_mismatch m -> Alcotest.failf "interface: %s" m

let suite =
  [
    Alcotest.test_case "cell order" `Quick test_cell_order;
    Alcotest.test_case "U decreases" `Slow test_u_decreases;
    Alcotest.test_case "constraints maintained" `Slow test_constraints_maintained;
    Alcotest.test_case "function preserved" `Slow test_function_preserved;
    Alcotest.test_case "trace monotone on accepts" `Slow test_trace_monotone_on_accepts;
    Alcotest.test_case "trace q monotone" `Slow test_trace_q_monotone;
    Alcotest.test_case "pinned campaign: sparc_spu@0.4" `Slow test_pinned_campaign;
    Alcotest.test_case "pinned campaign: tv80@0.5" `Slow test_pinned_tv80;
    Alcotest.test_case "pinned campaign: aes_core@0.5" `Slow test_pinned_aes_core;
    Alcotest.test_case "equiv_sat detects differences" `Quick test_equiv_sat_detects_differences;
    Alcotest.test_case "design metrics consistent" `Slow test_design_metrics_consistent;
    Alcotest.test_case "dppm model" `Slow test_dppm_model;
    Alcotest.test_case "guideline table sums" `Slow test_guideline_table_sums;
    Alcotest.test_case "fig2 series shape" `Slow test_fig2_series_shape;
    Alcotest.test_case "Table II shape on sparc_tlu" `Slow test_table2_sparc_tlu;
  ]
