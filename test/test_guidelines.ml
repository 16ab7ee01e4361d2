(* Tests for dfm_guidelines: the 59-guideline catalog and the violation →
   fault translation. *)

module N = Dfm_netlist.Netlist
module F = Dfm_faults.Fault
module G = Dfm_guidelines.Guideline
module T = Dfm_guidelines.Translate
module Defect = Dfm_cellmodel.Defect
module Geom = Dfm_layout.Geom
module Hash64 = Dfm_util.Hash64

let design = lazy (
  let nl = Dfm_circuits.Circuits.build ~scale:0.5 "tv80" in
  let fp = Dfm_layout.Floorplan.create nl in
  let pl = Dfm_layout.Place.place nl fp in
  let rt = Dfm_layout.Route.route pl in
  (nl, T.build rt))

let test_catalog () =
  Alcotest.(check int) "19 via" 19 G.n_via;
  Alcotest.(check int) "29 metal" 29 G.n_metal;
  Alcotest.(check int) "11 density" 11 G.n_density;
  Alcotest.(check int) "59 total" 59 (List.length G.all);
  (* ids unique *)
  let ids = List.map (fun g -> g.G.id) G.all in
  Alcotest.(check int) "unique ids" 59 (List.length (List.sort_uniq compare ids));
  let v3 = G.find Defect.Via 3 in
  Alcotest.(check string) "id format" "V03" v3.G.id

let test_classifiers_in_range () =
  List.iter
    (fun layer ->
      for len10 = 0 to 20 do
        let i = G.via_index ~layer ~net_length:(float_of_int (len10 * 10)) ~fanout:(len10 mod 6) in
        Alcotest.(check bool) "via idx" true (i >= 0 && i < G.n_via);
        let j =
          G.metal_width_index ~layer ~width:0.22 ~length:(float_of_int (len10 * 7))
        in
        Alcotest.(check bool) "metal idx" true (j >= 0 && j < G.n_metal);
        let k = G.metal_spacing_index ~layer ~gap:(0.05 +. (0.02 *. float_of_int len10)) in
        Alcotest.(check bool) "spacing idx" true (k >= 0 && k < G.n_metal);
        let d = G.density_index ~layer ~low:(len10 mod 2 = 0) ~density:(float_of_int len10 /. 20.0) in
        Alcotest.(check bool) "density idx" true (d >= 0 && d < G.n_density)
      done)
    [ Geom.M1; Geom.M2; Geom.M3 ]

let test_fault_list_structure () =
  let nl, fl = Lazy.force design in
  Alcotest.(check int) "ids dense" (Array.length fl.T.faults)
    (fl.T.n_internal + fl.T.n_external);
  Array.iteri
    (fun i f -> Alcotest.(check int) "fault id" i f.F.fault_id)
    fl.T.faults;
  (* internal faults come first and reference real gates/entries *)
  for i = 0 to fl.T.n_internal - 1 do
    match fl.T.faults.(i).F.kind with
    | F.Internal (g, e) ->
        let cell = (N.gate nl g).N.cell.Dfm_netlist.Cell.name in
        let u = Dfm_cellmodel.Udfm.for_cell cell in
        Alcotest.(check bool) "entry in range" true
          (e >= 0 && e < List.length u.Dfm_cellmodel.Udfm.entries)
    | _ -> Alcotest.fail "expected internal fault"
  done

let test_internal_count_matches_udfm () =
  let nl, fl = Lazy.force design in
  let expect =
    Array.fold_left
      (fun acc (g : N.gate) ->
        acc + Dfm_cellmodel.Udfm.internal_fault_count g.N.cell.Dfm_netlist.Cell.name)
      0 nl.N.gates
  in
  Alcotest.(check int) "internal total" expect fl.T.n_internal

let test_no_duplicate_kinds () =
  let _, fl = Lazy.force design in
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun (f : F.t) ->
      if Hashtbl.mem tbl f.F.kind then Alcotest.fail "duplicate fault kind";
      Hashtbl.add tbl f.F.kind ())
    fl.T.faults

let test_violations_reference_faults () =
  let _, fl = Lazy.force design in
  Alcotest.(check bool) "has violations" true (fl.T.violations <> []);
  List.iter
    (fun (v : T.violation) ->
      List.iter
        (fun fid ->
          Alcotest.(check bool) "fault id valid" true
            (fid >= 0 && fid < Array.length fl.T.faults))
        v.T.fault_ids)
    fl.T.violations

let test_all_three_categories_present () =
  let _, fl = Lazy.force design in
  let has cat =
    List.exists (fun (v : T.violation) -> v.T.guideline.G.category = cat) fl.T.violations
  in
  Alcotest.(check bool) "via violations" true (has Defect.Via);
  Alcotest.(check bool) "metal violations" true (has Defect.Metal);
  Alcotest.(check bool) "density violations" true (has Defect.Density)

let test_bridges_not_feedback () =
  let nl, fl = Lazy.force design in
  (* for every bridge fault, neither net may reach the other combinationally *)
  let reaches a b =
    let seen = Hashtbl.create 32 in
    let rec go n =
      if n = b then true
      else if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        List.exists
          (fun (g, _) ->
            let gg = N.gate nl g in
            (not gg.N.cell.Dfm_netlist.Cell.is_seq) && go gg.N.fanout)
          (N.net nl n).N.sinks
      end
    in
    go a
  in
  Array.iter
    (fun (f : F.t) ->
      match f.F.kind with
      | F.Bridge (n1, n2, _) ->
          Alcotest.(check bool) "no feedback" false (reaches n1 n2 || reaches n2 n1)
      | _ -> ())
    fl.T.faults

let test_internal_only_matches_prefix () =
  let nl, fl = Lazy.force design in
  let only = T.internal_only nl in
  Alcotest.(check int) "same count" fl.T.n_internal (Array.length only);
  Array.iteri
    (fun i f -> Alcotest.(check bool) "same kind" true (F.same_kind f.F.kind fl.T.faults.(i).F.kind))
    only

(* The fault list and violations of [Translate.build], digested: every
   fault's description (id, kind, origin) and every violation's guideline,
   location, nets and fault ids, pinned at the blocks the placement
   digests cover. *)
let translate_digest ~scale name =
  let nl, _, rt = Test_layout.layout ~scale name in
  let fl = T.build rt in
  let h = ref (Hash64.of_int fl.T.n_internal) in
  let mix v = h := Hash64.mix !h v in
  Array.iter (fun f -> mix (Hash64.of_string (F.describe nl f))) fl.T.faults;
  List.iter
    (fun (v : T.violation) ->
      mix (Hash64.of_string v.T.guideline.G.id);
      mix (Int64.bits_of_float v.T.at.Geom.x);
      mix (Int64.bits_of_float v.T.at.Geom.y);
      mix (Hash64.of_int_list v.T.nets);
      mix (Hash64.of_int_list v.T.fault_ids))
    fl.T.violations;
  Hash64.to_hex !h

(* Pinned from the translation that scanned every segment once per flagged
   density window, which the one-pass window nets replaced. *)
let translate_pins_quick =
  [
    ("tv80", 0.25, "6a6cd2a0a4deb28e");
    ("systemcaes", 0.25, "e7313f777c2ad940");
    ("aes_core", 0.25, "e0565c9063b7cfcf");
    ("wb_conmax", 0.25, "603ba5ea55355c00");
    ("des_perf", 0.25, "63966e478af69efe");
    ("sparc_spu", 0.25, "be6f952329e34453");
    ("sparc_ffu", 0.25, "f8092f6e2938e14d");
    ("sparc_exu", 0.25, "250a7e85a1fc5ae6");
    ("sparc_ifu", 0.25, "fe31e368e001a24f");
    ("sparc_tlu", 0.25, "e41cd1f7ac2535f5");
    ("sparc_lsu", 0.25, "e195c9e17c44e37c");
    ("sparc_fpu", 0.25, "f57d03f0fe8641b6");
  ]

let translate_pins_full =
  [
    ("aes_core", 1.0, "dc647fd4b873b139");
    ("sparc_fpu", 1.0, "dbe855ee14444e30");
    ("sparc_ifu", 1.0, "88ba80627572cfee");
    ("des_perf", 1.0, "350fcdba7a38bc3e");
    ("sparc_exu", 1.0, "131deb0eb1132d43");
    ("systemcaes", 1.0, "56d19531ba620c77");
  ]

let test_translate_digests_quick () =
  Test_layout.check_digests "translate" translate_digest translate_pins_quick

let test_translate_digests_full () =
  Test_layout.check_digests "translate" translate_digest translate_pins_full

let suite =
  [
    Alcotest.test_case "catalog" `Quick test_catalog;
    Alcotest.test_case "classifiers in range" `Quick test_classifiers_in_range;
    Alcotest.test_case "fault list structure" `Quick test_fault_list_structure;
    Alcotest.test_case "internal count matches udfm" `Quick test_internal_count_matches_udfm;
    Alcotest.test_case "no duplicate kinds" `Quick test_no_duplicate_kinds;
    Alcotest.test_case "violations reference faults" `Quick test_violations_reference_faults;
    Alcotest.test_case "all categories present" `Quick test_all_three_categories_present;
    Alcotest.test_case "bridges not feedback" `Quick test_bridges_not_feedback;
    Alcotest.test_case "internal_only prefix" `Quick test_internal_only_matches_prefix;
    Alcotest.test_case "translate digests, 12 blocks @0.25" `Quick test_translate_digests_quick;
    Alcotest.test_case "translate digests, analyze blocks @1.0" `Slow
      test_translate_digests_full;
  ]
