(* Tests for dfm_layout: floorplan, placement (full and incremental),
   routing, density. *)

module N = Dfm_netlist.Netlist
module Geom = Dfm_layout.Geom
module Floorplan = Dfm_layout.Floorplan
module Place = Dfm_layout.Place
module Route = Dfm_layout.Route
module Density = Dfm_layout.Density
module Hash64 = Dfm_util.Hash64

let circuit = lazy (Dfm_circuits.Circuits.build ~scale:0.5 "sparc_spu")

let test_floorplan_sizing () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create ~utilization:0.7 nl in
  let cell_area = N.total_area nl in
  let die_area = Geom.rect_area fp.Floorplan.die in
  let util = cell_area /. die_area in
  Alcotest.(check bool) "utilization near target" true (util > 0.60 && util < 0.78);
  Alcotest.(check bool) "fits itself" true (Floorplan.fits fp ~cell_area);
  Alcotest.(check bool) "reject 2x area" false (Floorplan.fits fp ~cell_area:(cell_area *. 2.0))

let test_placement_legal () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  Place.check_legal pl;
  (* every gate inside the die *)
  Array.iter
    (fun (g : N.gate) ->
      let c = Place.gate_center pl g.N.gate_id in
      Alcotest.(check bool) "inside die" true (Geom.contains fp.Floorplan.die c))
    nl.N.gates

let test_placement_improves_on_shuffle () =
  (* The annealer should not end with a catastrophically worse HPWL than the
     topological seed; sanity-check against a tiny random placement budget. *)
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let quick = Place.place ~sa_moves:1 nl fp in
  let full = Place.place nl fp in
  Alcotest.(check bool) "refined <= seed * 1.05" true
    (Place.total_hpwl full <= Place.total_hpwl quick *. 1.05)

let test_incremental_placement_stability () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  (* re-place the identical netlist incrementally: positions must be stable
     rows (x may re-pack slightly) *)
  let pl2 = Place.place ~previous:pl nl fp in
  Place.check_legal pl2;
  Array.iter
    (fun (g : N.gate) ->
      Alcotest.(check int)
        (Printf.sprintf "row of %s" g.N.gate_name)
        pl.Place.row_of.(g.N.gate_id) pl2.Place.row_of.(g.N.gate_id))
    nl.N.gates

let test_routing_covers_sinks () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  let rt = Route.route pl in
  Alcotest.(check bool) "has wire" true (Route.total_wirelength rt > 0.0);
  (* every multi-pin net gets geometry and length *)
  Array.iter
    (fun (nn : N.net) ->
      match nn.N.driver with
      | N.Const _ -> ()
      | N.Pi _ | N.Gate_out _ ->
          if nn.N.sinks <> [] then begin
            let has_via =
              Array.exists (fun (v : Geom.via) -> v.Geom.via_net = nn.N.net_id) rt.Route.vias
            in
            Alcotest.(check bool) ("via for " ^ nn.N.net_name) true has_via
          end)
    nl.N.nets

let test_routing_deterministic_per_name () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  let r1 = Route.route pl and r2 = Route.route pl in
  Alcotest.(check int) "same segments" (Array.length r1.Route.segments)
    (Array.length r2.Route.segments);
  Alcotest.(check (float 1e-9)) "same wirelength" (Route.total_wirelength r1)
    (Route.total_wirelength r2)

let test_segments_parallel_gap () =
  let mk layer (ax, ay) (bx, by) w =
    {
      Geom.seg_net = 0;
      seg_layer = layer;
      seg_a = { Geom.x = ax; y = ay };
      seg_b = { Geom.x = bx; y = by };
      seg_width = w;
    }
  in
  let h1 = mk Geom.M3 (0.0, 1.0) (10.0, 1.0) 0.2 in
  let h2 = mk Geom.M3 (5.0, 2.0) (15.0, 2.0) 0.2 in
  (match Geom.segments_parallel_gap h1 h2 with
  | Some gap -> Alcotest.(check (float 1e-9)) "gap" 0.8 gap
  | None -> Alcotest.fail "expected overlap");
  let v = mk Geom.M2 (3.0, 0.0) (3.0, 5.0) 0.2 in
  Alcotest.(check bool) "h vs v" true (Geom.segments_parallel_gap h1 v = None);
  let far = mk Geom.M3 (50.0, 1.5) (60.0, 1.5) 0.2 in
  Alcotest.(check bool) "no x overlap" true (Geom.segments_parallel_gap h1 far = None)

let test_density_analysis () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  let rt = Route.route pl in
  let d = Density.analyze rt in
  Alcotest.(check bool) "has windows" true (Array.length d.Density.windows >= 4);
  (* densities are sane fractions and total metal is conserved roughly *)
  Array.iter
    (fun (w : Density.window) ->
      List.iter
        (fun (_, dens) ->
          Alcotest.(check bool) "0 <= d <= 1" true (dens >= 0.0 && dens <= 1.0))
        w.Density.density)
    d.Density.windows

let test_place_does_not_fit () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  (* a bigger netlist cannot fit the same floorplan *)
  let big = Dfm_circuits.Circuits.build ~scale:1.0 "sparc_exu" in
  try
    ignore (Place.place big fp);
    Alcotest.fail "expected Does_not_fit"
  with Place.Does_not_fit _ -> ()

let test_scan_chain () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  let chain = Dfm_layout.Scan.stitch pl in
  let flops = N.seq_gates nl in
  Alcotest.(check int) "covers all flops" (List.length flops) chain.Dfm_layout.Scan.chain_length;
  Alcotest.(check int) "no duplicates" (List.length flops)
    (List.length (List.sort_uniq compare chain.Dfm_layout.Scan.order));
  Alcotest.(check bool) "positive wirelength" true (chain.Dfm_layout.Scan.wirelength > 0.0);
  (* serpentine should beat a gate-id-ordered chain on wirelength *)
  let naive =
    let rec walk acc = function
      | a :: (b :: _ as rest) ->
          walk (acc +. Geom.dist (Place.gate_center pl a) (Place.gate_center pl b)) rest
      | _ -> acc
    in
    walk 0.0 (List.map (fun (g : N.gate) -> g.N.gate_id) flops)
  in
  Alcotest.(check bool) "serpentine not worse than 1.2x naive" true
    (chain.Dfm_layout.Scan.wirelength <= naive *. 1.2);
  Alcotest.(check int) "cycles" ((10 + 1) * (chain.Dfm_layout.Scan.chain_length + 1))
    (Dfm_layout.Scan.test_cycles chain ~patterns:10)

let test_drc_clean_and_detects () =
  let nl = Lazy.force circuit in
  let fp = Floorplan.create nl in
  let pl = Place.place nl fp in
  let rt = Route.route pl in
  let r = Dfm_layout.Drc.check rt in
  Alcotest.(check int) "clean layout" 0 r.Dfm_layout.Drc.errors;
  Alcotest.(check bool) "clean()" true (Dfm_layout.Drc.clean r);
  (* sabotage: shrink a segment below minimum width *)
  let bad_segs = Array.copy rt.Route.segments in
  bad_segs.(0) <- { bad_segs.(0) with Geom.seg_width = 0.1 };
  let bad = { rt with Route.segments = bad_segs } in
  let rb = Dfm_layout.Drc.check bad in
  Alcotest.(check bool) "min-width caught" true
    (List.exists
       (fun (v : Dfm_layout.Drc.violation) -> v.Dfm_layout.Drc.rule = "R1-min-width")
       rb.Dfm_layout.Drc.violations);
  (* sabotage: push a segment off-die *)
  let far = { Geom.x = -100.0; y = -100.0 } in
  let bad_segs = Array.copy rt.Route.segments in
  bad_segs.(1) <- { bad_segs.(1) with Geom.seg_a = far };
  let bad2 = { rt with Route.segments = bad_segs } in
  let rb2 = Dfm_layout.Drc.check bad2 in
  Alcotest.(check bool) "off-die caught" true
    (List.exists
       (fun (v : Dfm_layout.Drc.violation) -> v.Dfm_layout.Drc.rule = "R2-off-die")
       rb2.Dfm_layout.Drc.violations)

(* ---- byte-identity guards ------------------------------------------- *)

(* The blocks of the two analyze-* benchmark workloads, pinned at full
   scale by the Slow guards; the Quick guards cover all twelve at 0.25. *)
let analyze_blocks = [ "aes_core"; "sparc_fpu"; "sparc_ifu"; "des_perf"; "sparc_exu"; "systemcaes" ]

(* Placement and routing exactly as [Design.implement] runs them. *)
let layout ~scale name =
  let nl = Dfm_circuits.Circuits.build ~scale name in
  let pl = Place.place ~seed:3 nl (Floorplan.create nl) in
  (nl, pl, Route.route ~seed:3 pl)

let check_digests label digest pins =
  List.iter
    (fun (name, scale, want) ->
      Alcotest.(check string) (Printf.sprintf "%s %s@%g" label name scale) want
        (digest ~scale name))
    pins

(* [row_of] plus the bits of [x_of]: any change to the annealer's move
   sequence, to the order in which a move's net costs are summed or to the
   row re-pack's running sum moves some cell and changes the digest. *)
let placement_digest ~scale name =
  let _, pl, _ = layout ~scale name in
  let h = ref (Hash64.of_int (Array.length pl.Place.row_of)) in
  Array.iteri
    (fun g r ->
      h := Hash64.mix (Hash64.mix !h (Int64.of_int r)) (Int64.bits_of_float pl.Place.x_of.(g)))
    pl.Place.row_of;
  Hash64.to_hex !h

(* Pinned from the list-based annealer that the array-based one replaced,
   and never to be re-pinned to let a change through: the placement feeds
   every later layer, so a moved cell is a changed report. *)
let placement_pins_quick =
  [
    ("tv80", 0.25, "7be4e3c92ef84a36");
    ("systemcaes", 0.25, "a17fcb78b93e98ae");
    ("aes_core", 0.25, "8a0b8e32725a0fed");
    ("wb_conmax", 0.25, "0efdfe3aae47a8e7");
    ("des_perf", 0.25, "a4b9e63f93940b55");
    ("sparc_spu", 0.25, "88c62e116af07fc6");
    ("sparc_ffu", 0.25, "a58e4c31c45e52f0");
    ("sparc_exu", 0.25, "050439bf0fb28c18");
    ("sparc_ifu", 0.25, "c206cc27ab20cc2c");
    ("sparc_tlu", 0.25, "e63366cc5e539b31");
    ("sparc_lsu", 0.25, "735f263b7b57e41d");
    ("sparc_fpu", 0.25, "73a932e079cb8a72");
  ]

let placement_pins_full =
  [
    ("aes_core", 1.0, "b108e5310da51df8");
    ("sparc_fpu", 1.0, "f44a9dae643062f9");
    ("sparc_ifu", 1.0, "fe8c4519e51aaa17");
    ("des_perf", 1.0, "c71ef73320114252");
    ("sparc_exu", 1.0, "fc5dab6c8f618cff");
    ("systemcaes", 1.0, "143af4fc2892a597");
  ]

let test_placement_digests_quick () =
  check_digests "placement" placement_digest placement_pins_quick

let test_placement_digests_full () =
  check_digests "placement" placement_digest placement_pins_full

(* The scan [Density.window_nets] replaced, kept here as its oracle: every
   segment of the routing tested against one window. *)
let nets_in_window (rt : Route.t) w =
  Array.to_list rt.Route.segments
  |> List.filter_map (fun s ->
         if Geom.overlap (Route.seg_bbox s) w then Some s.Geom.seg_net else None)
  |> List.sort_uniq compare

let test_window_nets_match_scan () =
  List.iter
    (fun name ->
      let _, _, rt = layout ~scale:0.25 name in
      let d = Density.analyze rt in
      let got = Density.window_nets d rt in
      Alcotest.(check int) (name ^ ": one list per window") (Array.length d.Density.windows)
        (Array.length got);
      Array.iteri
        (fun i (w : Density.window) ->
          let want = nets_in_window rt w.Density.win in
          if got.(i) <> want then
            Alcotest.failf "%s window %d: %d nets, the scan finds %d" name i
              (List.length got.(i)) (List.length want))
        d.Density.windows)
    Dfm_circuits.Circuits.names

let suite =
  [
    Alcotest.test_case "floorplan sizing" `Quick test_floorplan_sizing;
    Alcotest.test_case "placement legal" `Quick test_placement_legal;
    Alcotest.test_case "placement refines" `Quick test_placement_improves_on_shuffle;
    Alcotest.test_case "incremental placement stable" `Quick test_incremental_placement_stability;
    Alcotest.test_case "routing covers sinks" `Quick test_routing_covers_sinks;
    Alcotest.test_case "routing deterministic" `Quick test_routing_deterministic_per_name;
    Alcotest.test_case "parallel gap" `Quick test_segments_parallel_gap;
    Alcotest.test_case "density analysis" `Quick test_density_analysis;
    Alcotest.test_case "does not fit" `Quick test_place_does_not_fit;
    Alcotest.test_case "scan chain" `Quick test_scan_chain;
    Alcotest.test_case "drc clean + detects" `Quick test_drc_clean_and_detects;
    Alcotest.test_case "window nets match the per-window scan" `Quick test_window_nets_match_scan;
    Alcotest.test_case "placement digests, 12 blocks @0.25" `Quick test_placement_digests_quick;
    Alcotest.test_case "placement digests, analyze blocks @1.0" `Slow
      test_placement_digests_full;
  ]
