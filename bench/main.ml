(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section and registers one Bechamel micro-benchmark per
   experiment.

   Sections (select with REPRO_SECTIONS=table1,table2,...; default all):
     table1   — Table I, clustering of undetectable DFM faults
     table2   — Table II, the full two-phase resynthesis on all 12 blocks
     fig2     — Fig. 2, the per-step cluster-breaking trajectory
     ablation — Section IV restricted-library experiment
     choices  — ablations of this reproduction's own design choices
     certify  — certificate-checking overhead (proof bytes, check p50/p99)
     kernel   — ns and minor words per fault-simulation detect_word call
     micro    — Bechamel timings of the per-experiment kernels

   REPRO_SCALE scales the generated blocks (default 1.0);
   REPRO_CIRCUITS restricts table2, fig2 and certify to a
   comma-separated subset.  The repository's timing benchmark is
   perfbench/ (see perfbench/README.md). *)

module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Report = Dfm_core.Report
module Circuits = Dfm_circuits.Circuits

let sections =
  match Sys.getenv_opt "REPRO_SECTIONS" with
  | None ->
      [ "table1"; "table2"; "fig2"; "ablation"; "choices"; "certify"; "kernel"; "micro" ]
  | Some s -> String.split_on_char ',' s |> List.map String.trim

let wants s = List.mem s sections

let circuits_subset =
  match Sys.getenv_opt "REPRO_CIRCUITS" with
  | None -> Circuits.names
  | Some s ->
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun n -> List.mem n Circuits.names)

let line () = print_endline (String.make 100 '-')

let header title =
  print_newline ();
  line ();
  Printf.printf "== %s ==\n" title;
  line ()

(* Designs are shared between sections; memoized per circuit. *)
let design_cache : (string, Design.t) Hashtbl.t = Hashtbl.create 16
let netlist_cache : (string, Dfm_netlist.Netlist.t) Hashtbl.t = Hashtbl.create 16

let netlist_of name =
  match Hashtbl.find_opt netlist_cache name with
  | Some nl -> nl
  | None ->
      let nl = Circuits.build name in
      Hashtbl.add netlist_cache name nl;
      nl

let design_of name =
  match Hashtbl.find_opt design_cache name with
  | Some d -> d
  | None ->
      let d = Design.implement (netlist_of name) in
      Hashtbl.add design_cache name d;
      d

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  header "Table I: clustered undetectable DFM faults (original designs)";
  Format.printf "%a  (measured)@." Report.pp_table1_header ();
  let rows =
    List.map
      (fun name ->
        let r = Report.table1_row ~name (design_of name) in
        Format.printf "%a@." Report.pp_table1_row r;
        r)
      Circuits.table1_names
  in
  print_newline ();
  Printf.printf "%-11s %7s %7s %6s %6s %6s %6s %6s %9s  (paper)\n" "Circuit" "F_In" "F_Ex"
    "U_In" "U_Ex" "G_U" "Gmax" "Smax" "%Smax_U";
  List.iter
    (fun (c, fi, fe, ui, ue, gu, gm, sm, pct) ->
      Printf.printf "%-11s %7d %7d %6d %6d %6d %6d %6d %8.2f%%\n" c fi fe ui ue gu gm sm pct)
    Paper_data.table1;
  print_newline ();
  let all p = List.for_all p rows in
  Printf.printf "shape: undetectable faults are mostly internal (U_In > U_Ex): %b (paper: true)\n"
    (all (fun r -> r.Report.u_in > r.Report.u_ex));
  Printf.printf
    "note: F_Ex/F_In measured %s (paper 2.2..4.9: a commercial extractor on full detailed\n"
    (String.concat " "
       (List.map
          (fun r -> Printf.sprintf "%.2f" (float_of_int r.Report.f_ex /. float_of_int (max 1 r.Report.f_in)))
          rows));
  Printf.printf "      routing sees far more interconnect geometry than our 3-layer global router)\n";
  Printf.printf
    "shape: a single cluster holds a large share of U (paper %%Smax_U 27..66%%): measured %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f%%" r.Report.pct_smax_u) rows))

(* ------------------------------------------------------------------ *)
(* Table II                                                             *)
(* ------------------------------------------------------------------ *)

let resynth_cache : (string, Resynth.result) Hashtbl.t = Hashtbl.create 16

let resynth_of name =
  match Hashtbl.find_opt resynth_cache name with
  | Some r -> r
  | None ->
      let r = Resynth.run (design_of name) in
      Hashtbl.add resynth_cache name r;
      r

let run_table2 () =
  header "Table II: two-phase resynthesis under design constraints (q swept 0..5)";
  Format.printf "%a@." Report.pp_table2_header ();
  let rows =
    List.map
      (fun name ->
        let r = resynth_of name in
        let orig, resyn = Report.table2_rows ~name r in
        Format.printf "%a@." Report.pp_table2_row orig;
        Format.printf "%a@." Report.pp_table2_row resyn;
        (orig, resyn))
      circuits_subset
  in
  let origs = List.map fst rows and resyns = List.map snd rows in
  Format.printf "%a@." Report.pp_table2_row
    { (Report.average_rows origs) with Report.max_inc = "orig" };
  Format.printf "%a@." Report.pp_table2_row
    { (Report.average_rows resyns) with Report.max_inc = "resyn" };
  print_newline ();
  Printf.printf "paper Table II (same columns, authors' testbed):\n";
  List.iter
    (fun (p : Paper_data.t2) ->
      if List.mem p.Paper_data.circuit circuits_subset then begin
        Printf.printf "%-11s %5s %7d %6d %6.2f%% %5d %6d %8.2f%%\n" p.Paper_data.circuit "orig"
          p.Paper_data.f0 p.Paper_data.u0 p.Paper_data.cov0 p.Paper_data.t0 p.Paper_data.smax0
          p.Paper_data.pct_smax_all0;
        Printf.printf "%-11s %5s %7d %6d %6.2f%% %5d %6d %8.2f%%  delay %.2f%% power %.2f%% rtime %.2f\n"
          p.Paper_data.circuit p.Paper_data.q p.Paper_data.f1 p.Paper_data.u1 p.Paper_data.cov1
          p.Paper_data.t1 p.Paper_data.smax1 p.Paper_data.pct_smax_all1 p.Paper_data.delay1
          p.Paper_data.power1 p.Paper_data.rtime1
      end)
    Paper_data.table2;
  print_newline ();
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let u_reduction =
    List.map2
      (fun (o : Report.table2_row) (r : Report.table2_row) ->
        ratio o.Report.u (max 1 r.Report.u))
      origs resyns
  in
  Printf.printf
    "shape: U reduced by about an order of magnitude (paper avg 9.6x): measured avg %.1fx\n"
    (List.fold_left ( +. ) 0.0 u_reduction /. float_of_int (max 1 (List.length u_reduction)));
  Printf.printf
    "shape: %%Smax_all below p1 = 1%% for most circuits (paper: 11 of 12): measured %d of %d\n"
    (List.length (List.filter (fun (r : Report.table2_row) -> r.Report.pct_smax_all < 1.0) resyns))
    (List.length resyns);
  Printf.printf "shape: delay and power within the +5%% budget everywhere: %b (paper: true)\n"
    (List.for_all
       (fun (r : Report.table2_row) ->
         r.Report.delay_rel <= 1.05 +. 1e-9 && r.Report.power_rel <= 1.05 +. 1e-9)
       resyns);
  let tsum rows =
    List.fold_left (fun a (r : Report.table2_row) -> a +. float_of_int r.Report.tests) 0.0 rows
  in
  Printf.printf "shape: test-set size T changes little (paper avg +2%%): measured avg %+.0f%%\n"
    (100.0 *. ((tsum resyns /. Float.max 1.0 (tsum origs)) -. 1.0));
  let all_eq =
    List.for_all
      (fun name ->
        Dfm_atpg.Equiv_sat.check (netlist_of name) (resynth_of name).Resynth.final.Design.netlist
        = Dfm_atpg.Equiv_sat.Equivalent)
      circuits_subset
  in
  Printf.printf "check: every resynthesized block is SAT-proven equivalent: %b\n" all_eq;
  (* The paper: "the layouts for all the resynthesized circuits are achieved
     within the original floorplans without design rule violations". *)
  let all_drc =
    List.for_all
      (fun name ->
        Dfm_layout.Drc.clean
          (Dfm_layout.Drc.check (resynth_of name).Resynth.final.Design.routing))
      circuits_subset
  in
  Printf.printf "check: every resynthesized layout is DRC-clean in the original floorplan: %b\n"
    all_drc;
  (* The motivation quantified: expected escape DPPM from the uncovered
     sites, and tester time from the compacted test set over the scan
     chain. *)
  print_newline ();
  Printf.printf "impact (motivation of Section I): escapes and tester time, original -> resynthesized\n";
  List.iter2
    (fun name (orig, resyn) ->
      let r = resynth_of name in
      let d0 = r.Resynth.initial and d1 = r.Resynth.final in
      let dppm0 = Dfm_core.Dppm.escapes_dppm d0 and dppm1 = Dfm_core.Dppm.escapes_dppm d1 in
      let chain0 = Dfm_layout.Scan.stitch d0.Design.placement in
      let chain1 = Dfm_layout.Scan.stitch d1.Design.placement in
      let t0 = Dfm_layout.Scan.test_time_ms chain0 ~patterns:orig.Report.tests ~shift_mhz:25.0 in
      let t1 = Dfm_layout.Scan.test_time_ms chain1 ~patterns:resyn.Report.tests ~shift_mhz:25.0 in
      Printf.printf
        "  %-11s escapes %7.1f -> %6.1f dppm (%4.1fx)   tester time %6.3f -> %6.3f ms\n" name
        dppm0 dppm1
        (dppm0 /. Float.max 1e-9 dppm1)
        t0 t1)
    circuits_subset rows

(* ------------------------------------------------------------------ *)
(* Fig. 2                                                               *)
(* ------------------------------------------------------------------ *)

let run_fig2 () =
  header "Fig. 2: phase 1 breaks the largest clusters, phase 2 cleans up (trajectory)";
  let name = List.hd circuits_subset in
  let r = resynth_of name in
  Printf.printf "circuit %s: accepted-step series\n" name;
  List.iter
    (fun (p : Report.fig2_point) ->
      Printf.printf "  step %2d  q=%d  phase %d   U=%5d   |Smax|=%5d%s\n" p.Report.step
        p.Report.q p.Report.phase p.Report.u p.Report.smax_size
        (if p.Report.step = 0 then "   (original)" else ""))
    (Report.fig2_series r);
  let series = Report.fig2_series r in
  let count ph = List.length (List.filter (fun p -> p.Report.phase = ph && p.Report.step > 0) series) in
  Printf.printf "shape: phase-1 accepted steps %d (cluster-directed), phase-2 accepted steps %d\n"
    (count 1) (count 2);
  match (series, List.rev series) with
  | first :: _, last :: _ ->
      Printf.printf "  |Smax|: %d -> %d,  U: %d -> %d\n" first.Report.smax_size
        last.Report.smax_size first.Report.u last.Report.u
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Ablation                                                             *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  header "Section IV ablation: globally removing the 7 largest cells breaks the constraints";
  List.iter
    (fun (name, pd, pp) ->
      let row = Report.ablation ~name (netlist_of name) in
      Printf.printf "%-10s removed: %s\n" name (String.concat " " row.Report.removed);
      if row.Report.fits then begin
        Printf.printf
          "  measured: delay %.1f%%, power %.1f%% of original   (paper: delay %.0f%%, power %.0f%%)\n"
          (100.0 *. row.Report.delay_rel)
          (100.0 *. row.Report.power_rel)
          pd pp;
        Printf.printf "  shape: +5%% budget broken by the blunt restriction: %b (paper: true)\n"
          (row.Report.delay_rel > 1.05 || row.Report.power_rel > 1.05)
      end
      else
        Printf.printf
          "  measured: layout does NOT fit the original floorplan (area budget broken outright; paper saw delay %.0f%%, power %.0f%%)\n"
          pd pp)
    Paper_data.ablation

(* ------------------------------------------------------------------ *)
(* Design-choice ablations (DESIGN.md §5)                               *)
(* ------------------------------------------------------------------ *)

let run_choices () =
  header "Design-choice ablations: what each Synthesize() ingredient contributes";
  let name = "sparc_spu" in
  let d0 = design_of name in
  let m0 = Design.metrics d0 in
  Printf.printf "circuit %s: original U=%d |Smax|=%d
" name m0.Design.u m0.Design.s_max;
  let variant label ?sweep ?context_levels () =
    let t0 = Unix.gettimeofday () in
    let r = Resynth.run ?sweep ?context_levels d0 in
    let m = Design.metrics r.Resynth.final in
    Printf.printf "  %-34s U=%4d  |Smax|=%4d  delay %6.1f%%  power %6.1f%%  (%.0fs)
" label
      m.Design.u m.Design.s_max
      (100.0 *. m.Design.delay /. m0.Design.delay)
      (100.0 *. m.Design.power /. m0.Design.power)
      (Unix.gettimeofday () -. t0)
  in
  variant "full procedure (defaults)" ();
  variant "no SAT sweeping in Synthesize()" ~sweep:false ();
  variant "no fanin context (C_sub = G_max only)" ~context_levels:0 ();
  variant "1 level of fanin context" ~context_levels:1 ();
  Printf.printf
    "expected shape: without sweeping or context the procedure can only swap cell types,
";
  Printf.printf
    "so U falls far less — the paper's commercial Synthesize() gets both for free.
"

(* ------------------------------------------------------------------ *)
(* Certify: overhead of end-to-end certificate checking                 *)
(* ------------------------------------------------------------------ *)

(* p-th percentile from the cumulative log2 bucket counts accumulated
   between two histogram snapshots (upper bound of the first bucket holding
   the rank; resolution is a factor of two). *)
let bucket_percentile before after p =
  let delta =
    Array.mapi
      (fun i (le, c) ->
        let c0 = if i < Array.length before then snd before.(i) else 0 in
        (le, c - c0))
      after
  in
  let total = Array.fold_left (fun a (_, c) -> max a c) 0 delta in
  if total = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int total)) in
    let rec find i = if snd delta.(i) >= rank then fst delta.(i) else find (i + 1) in
    find 0

let cert_check_buckets () =
  match Dfm_obs.Metrics.find_value "dfm_cert_check_ns" with
  | Some (Dfm_obs.Metrics.Histogram { buckets; _ }) -> buckets
  | _ -> [||]

let run_certify () =
  header "Certify: independent certificate checking, certified vs plain classification";
  (* Timing histograms are gated off by default; the check-latency
     percentiles need them on for the certified runs. *)
  let was_timing = Dfm_obs.Metrics.timing_enabled () in
  Dfm_obs.Metrics.set_timing_enabled true;
  Fun.protect ~finally:(fun () -> Dfm_obs.Metrics.set_timing_enabled was_timing)
  @@ fun () ->
  let picks = List.filteri (fun i _ -> i < 2) circuits_subset in
  let rows =
    List.map
      (fun name ->
        let d = design_of name in
        let nl = d.Design.netlist in
        let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
        let timed f =
          let t0 = Unix.gettimeofday () in
          let r = f () in
          (Unix.gettimeofday () -. t0, r)
        in
        let t_plain, plain = timed (fun () -> Dfm_atpg.Atpg.classify ~jobs:1 nl faults) in
        let c0 = Dfm_sat.Cert.totals () in
        let qw0 = cert_check_buckets () in
        let t_cert, certified =
          timed (fun () -> Dfm_atpg.Atpg.classify ~jobs:1 ~certify:true nl faults)
        in
        let qw1 = cert_check_buckets () in
        let c1 = Dfm_sat.Cert.totals () in
        let identical =
          plain.Dfm_atpg.Atpg.status = certified.Dfm_atpg.Atpg.status
          && plain.Dfm_atpg.Atpg.counts = certified.Dfm_atpg.Atpg.counts
        in
        let checks = c1.Dfm_sat.Cert.checked - c0.Dfm_sat.Cert.checked in
        let failed = c1.Dfm_sat.Cert.failed - c0.Dfm_sat.Cert.failed in
        let proof_bytes = c1.Dfm_sat.Cert.proof_bytes - c0.Dfm_sat.Cert.proof_bytes in
        let p50 = bucket_percentile qw0 qw1 0.50 in
        let p99 = bucket_percentile qw0 qw1 0.99 in
        let slowdown = t_cert /. Float.max 1e-9 t_plain in
        Printf.printf
          "  %-11s %5d checks (%d failed)   proof %7d B   check p50 %7.1f us  p99 %7.1f us   %6.2fs -> %6.2fs (%.2fx)   bit-identical %b\n"
          name checks failed proof_bytes (p50 /. 1e3) (p99 /. 1e3) t_plain t_cert slowdown
          identical;
        (checks, failed, identical))
      picks
  in
  Printf.printf
    "shape: every verdict checked, zero failures, verdicts bit-identical: %b\n"
    (List.for_all (fun (checks, failed, identical) -> checks > 0 && failed = 0 && identical) rows)

(* ------------------------------------------------------------------ *)
(* Fault-simulation kernel                                              *)
(* ------------------------------------------------------------------ *)

(* Cost of one [Fault_sim.detect_word] call: every fault of the design's
   DFM fault list over 16 random 64-pattern blocks, the unit of work of the
   random-pattern prefilter in [Atpg.classify].  Reports wall ns and minor
   words allocated per call (the fault-free [Logic_sim.run] of each block is
   outside the measured region). *)
let run_kernel () =
  header "Fault-simulation kernel: detect_word per call";
  Printf.printf "  %-12s %8s %10s %12s %14s\n" "circuit" "gates" "faults" "ns/call"
    "minor w/call";
  List.iter
    (fun name ->
      let d = design_of name in
      let nl = d.Design.netlist in
      let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
      let fs = Dfm_sim.Fault_sim.prepare nl in
      let ls = Dfm_sim.Fault_sim.sim fs in
      let rng = Dfm_util.Rng.create 16 in
      (* [sink] folds every result so no call is dead; a local ref that no
         closure captures is kept unboxed, so the loop itself allocates
         nothing. *)
      let calls = ref 0 and secs = ref 0.0 and words = ref 0.0 and sink = ref 0L in
      for _ = 1 to 16 do
        let good = Dfm_sim.Logic_sim.run ls (Dfm_sim.Logic_sim.random_words ls rng) in
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for i = 0 to Array.length faults - 1 do
          sink := Int64.logxor !sink (Dfm_sim.Fault_sim.detect_word fs ~good faults.(i))
        done;
        secs := !secs +. (Unix.gettimeofday () -. t0);
        words := !words +. (Gc.minor_words () -. w0);
        calls := !calls + Array.length faults
      done;
      let per x = x /. float_of_int (max 1 !calls) in
      Printf.printf "  %-12s %8d %10d %12.0f %14.1f   (xor %Lx)\n" name
        (Dfm_netlist.Netlist.num_gates nl) (Array.length faults) (per (!secs *. 1e9))
        (per !words) !sink)
    [ "aes_core"; "des_perf"; "sparc_spu"; "tv80" ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per experiment                 *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  header "Bechamel micro-benchmarks (one kernel per experiment)";
  let open Bechamel in
  let d = design_of "sparc_spu" in
  let nl = d.Design.netlist in
  let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
  let undetectable fid = Design.undetectable d fid in
  let ls = Dfm_sim.Logic_sim.prepare nl in
  let rng = Dfm_util.Rng.create 1 in
  let lib = nl.Dfm_netlist.Netlist.library in
  let excluded =
    Dfm_core.Resynth.cells_by_internal_faults lib
    |> List.filteri (fun i _ -> i < 7)
    |> List.map (fun (c : Dfm_netlist.Cell.t) -> c.Dfm_netlist.Cell.name)
  in
  let restricted = Dfm_netlist.Library.restrict lib ~excluded in
  (* A campaign derives its restricted tables from one full table. *)
  let derived = Dfm_synth.Mapper.restrict (Dfm_synth.Mapper.build_table lib) ~excluded in
  let region =
    d.Design.cluster.Dfm_core.Cluster.gmax
    |> List.filter (fun g ->
           not
             (Dfm_netlist.Netlist.gate nl g).Dfm_netlist.Netlist.cell.Dfm_netlist.Cell.is_seq)
  in
  let tests =
    [
      (* Table I kernel: the Section II cluster partition. *)
      Test.make ~name:"table1/cluster-partition"
        (Staged.stage (fun () -> ignore (Dfm_core.Cluster.compute nl faults ~undetectable)));
      (* Table II kernel: one Synthesize() call on the phase-1 region. *)
      Test.make ~name:"table2/synthesize-region"
        (Staged.stage (fun () ->
             ignore
               (Dfm_synth.Convert.remap_region ~goal:`Area nl ~gates:region ~table:derived)));
      (* Fig. 2 kernel: a 64-pattern simulation block (the unit of the
         random-pattern classification behind every trajectory point). *)
      Test.make ~name:"fig2/simulate-64-patterns"
        (Staged.stage (fun () ->
             ignore (Dfm_sim.Logic_sim.run ls (Dfm_sim.Logic_sim.random_words ls rng))));
      (* Ablation kernel: building the restricted-library match table. *)
      Test.make ~name:"ablation/build-match-table"
        (Staged.stage (fun () -> ignore (Dfm_synth.Mapper.build_table restricted)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "  %-30s %14.0f ns/run\n" name t
          | Some _ | None -> Printf.printf "  %-30s (no estimate)\n" name)
        res)
    tests

let () =
  Printf.printf "DFM resynthesis benchmark harness (scale %.2f)\n" (Circuits.default_scale ());
  if wants "table1" then run_table1 ();
  if wants "table2" then run_table2 ();
  if wants "fig2" then run_fig2 ();
  if wants "ablation" then run_ablation ();
  if wants "choices" then run_choices ();
  if wants "certify" then run_certify ();
  if wants "kernel" then run_kernel ();
  if wants "micro" then run_micro ();
  print_newline ();
  print_endline "done."
