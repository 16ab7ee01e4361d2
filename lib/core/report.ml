module N = Dfm_netlist.Netlist
module Cell = Dfm_netlist.Cell
module Library = Dfm_netlist.Library
module F = Dfm_faults.Fault
module Atpg = Dfm_atpg.Atpg

type table1_row = {
  t1_circuit : string;
  f_in : int;
  f_ex : int;
  u_in : int;
  u_ex : int;
  g_u : int;
  gmax : int;
  smax : int;
  pct_smax_u : float;
}

let table1_row ~name (d : Design.t) =
  let m = Design.metrics d in
  let fl = d.Design.fault_list in
  {
    t1_circuit = name;
    f_in = fl.Dfm_guidelines.Translate.n_internal;
    f_ex = fl.Dfm_guidelines.Translate.n_external;
    u_in = m.Design.u_internal;
    u_ex = m.Design.u_external;
    g_u = m.Design.g_u;
    gmax = m.Design.g_max;
    smax = m.Design.s_max;
    pct_smax_u = m.Design.pct_smax_of_u;
  }

let pp_table1_header ppf () =
  Format.fprintf ppf "%-11s %7s %7s %6s %6s %6s %6s %6s %9s" "Circuit" "F_In" "F_Ex" "U_In"
    "U_Ex" "G_U" "Gmax" "Smax" "%Smax_U"

let pp_table1_row ppf r =
  Format.fprintf ppf "%-11s %7d %7d %6d %6d %6d %6d %6d %8.2f%%" r.t1_circuit r.f_in r.f_ex
    r.u_in r.u_ex r.g_u r.gmax r.smax r.pct_smax_u

type table2_row = {
  t2_circuit : string;
  max_inc : string;
  f : int;
  u : int;
  cov : float;
  tests : int;
  smax : int;
  pct_smax_all : float;
  smax_i : int;
  pct_smax_i : float;
  delay_rel : float;
  power_rel : float;
  rtime : float;
}

let best_q (r : Resynth.result) =
  List.fold_left
    (fun acc (e : Resynth.event) ->
      if e.Resynth.ev_action = "accept" || e.Resynth.ev_action = "backtrack-accept" then
        max acc e.Resynth.ev_q
      else acc)
    0 r.Resynth.trace

let test_count (d : Design.t) =
  let g =
    Atpg.generate d.Design.netlist d.Design.fault_list.Dfm_guidelines.Translate.faults
  in
  List.length g.Atpg.tests

let row_of_design ~name ~max_inc ~rtime ~delay_rel ~power_rel ~tests (d : Design.t) =
  let m = Design.metrics d in
  {
    t2_circuit = name;
    max_inc;
    f = m.Design.f;
    u = m.Design.u;
    cov = m.Design.coverage;
    tests;
    smax = m.Design.s_max;
    pct_smax_all = m.Design.pct_smax_of_f;
    smax_i = m.Design.s_max_internal;
    pct_smax_i = m.Design.pct_smax_internal;
    delay_rel;
    power_rel;
    rtime;
  }

(* Rtime is the campaign's runtime in units of one synthesis + physical
   design + test generation iteration (the paper's Table II).  The unit is
   timed here: one uncached implement of the original netlist on its
   floorplan, plus the test generation the orig row runs anyway for its T.
   The runtime counts that first iteration too: (unit + elapsed) / unit. *)
let table2_rows ~name (r : Resynth.result) =
  let d0 = r.Resynth.initial and d1 = r.Resynth.final in
  let m0 = Design.metrics d0 and m1 = Design.metrics d1 in
  let t0 = Unix.gettimeofday () in
  ignore (Design.implement ~floorplan:d0.Design.floorplan d0.Design.netlist : Design.t);
  let tests0 = test_count d0 in
  let unit_s = Unix.gettimeofday () -. t0 in
  let orig =
    row_of_design ~name ~max_inc:"orig" ~rtime:1.0 ~delay_rel:1.0 ~power_rel:1.0 ~tests:tests0 d0
  in
  let resyn =
    row_of_design ~name
      ~max_inc:(Printf.sprintf "%d%%" (best_q r))
      ~rtime:((unit_s +. r.Resynth.elapsed_s) /. unit_s)
      ~delay_rel:(m1.Design.delay /. m0.Design.delay)
      ~power_rel:(m1.Design.power /. m0.Design.power)
      ~tests:(test_count d1) d1
  in
  (orig, resyn)

let average_rows rows =
  let n = float_of_int (max 1 (List.length rows)) in
  let favg f = List.fold_left (fun a r -> a +. f r) 0.0 rows /. n in
  let iavg f = int_of_float (Float.round (favg (fun r -> float_of_int (f r)))) in
  {
    t2_circuit = "average";
    max_inc = (match rows with r :: _ -> r.max_inc | [] -> "-");
    f = iavg (fun r -> r.f);
    u = iavg (fun r -> r.u);
    cov = favg (fun r -> r.cov);
    tests = iavg (fun r -> r.tests);
    smax = iavg (fun r -> r.smax);
    pct_smax_all = favg (fun r -> r.pct_smax_all);
    smax_i = iavg (fun r -> r.smax_i);
    pct_smax_i = favg (fun r -> r.pct_smax_i);
    delay_rel = favg (fun r -> r.delay_rel);
    power_rel = favg (fun r -> r.power_rel);
    rtime = favg (fun r -> r.rtime);
  }

let pp_table2_header ppf () =
  Format.fprintf ppf "%-11s %5s %7s %6s %7s %5s %6s %9s %7s %8s %8s %8s %6s" "Circuit"
    "MaxInc" "F" "U" "Cov" "T" "Smax" "%Smax_all" "Smax_I" "%Smax_I" "Delay" "Power" "Rtime"

let pp_table2_row ppf r =
  Format.fprintf ppf "%-11s %5s %7d %6d %6.2f%% %5d %6d %8.2f%% %7d %7.2f%% %7.2f%% %7.2f%% %6.2f"
    r.t2_circuit r.max_inc r.f r.u r.cov r.tests r.smax r.pct_smax_all r.smax_i r.pct_smax_i
    (100.0 *. r.delay_rel) (100.0 *. r.power_rel) r.rtime

let pp_effort ppf
    Resynth.
      { effort = { implement_calls; sat_queries; conflicts; decisions; propagations;
                   escalation_retries; aborted_residual };
        resumed_steps; certified_checks; certified_failures; _ } =
  Format.fprintf ppf "implement calls %d, SAT queries %d" implement_calls sat_queries;
  Format.fprintf ppf ", conflicts %d (decisions %d, propagations %d)" conflicts decisions
    propagations;
  (* Resilience counters appear only when the run actually exercised them:
     the common healthy run keeps its one-line shape. *)
  if resumed_steps > 0 then Format.fprintf ppf ", resumed steps %d" resumed_steps;
  if escalation_retries > 0 then Format.fprintf ppf ", escalation retries %d" escalation_retries;
  if aborted_residual > 0 then Format.fprintf ppf ", residual aborts %d" aborted_residual;
  (* Certification counters follow the same rule: only a certified run
     prints them, so uncertified output stays byte-identical. *)
  if certified_checks > 0 || certified_failures > 0 then
    Format.fprintf ppf ", certified checks %d (failed %d)" certified_checks certified_failures

type fig2_point = {
  step : int;
  phase : int;
  q : int;
  u : int;
  smax_size : int;
}

let fig2_series (r : Resynth.result) =
  let m0 = Design.metrics r.Resynth.initial in
  let start = { step = 0; phase = 1; q = 0; u = m0.Design.u; smax_size = m0.Design.s_max } in
  let accepts =
    List.filter
      (fun (e : Resynth.event) ->
        e.Resynth.ev_action = "accept" || e.Resynth.ev_action = "backtrack-accept")
      r.Resynth.trace
  in
  start
  :: List.mapi
       (fun i (e : Resynth.event) ->
         {
           step = i + 1;
           phase = e.Resynth.ev_phase;
           q = e.Resynth.ev_q;
           u = e.Resynth.ev_u;
           smax_size = e.Resynth.ev_smax;
         })
       accepts

type ablation_row = {
  ab_circuit : string;
  removed : string list;
  delay_rel : float;
  power_rel : float;
  fits : bool;
}

type guideline_row = {
  gl : Dfm_guidelines.Guideline.t;
  n_faults : int;
  n_undetectable : int;
}

let guideline_table (d : Design.t) =
  let faults = d.Design.fault_list.Dfm_guidelines.Translate.faults in
  let tally = Hashtbl.create 64 in
  Array.iteri
    (fun fid (f : F.t) ->
      let key = (f.F.origin.F.category, f.F.origin.F.guideline_index) in
      let nf, nu = try Hashtbl.find tally key with Not_found -> (0, 0) in
      let undet = if Design.undetectable d fid then 1 else 0 in
      Hashtbl.replace tally key (nf + 1, nu + undet))
    faults;
  Hashtbl.fold
    (fun (cat, idx) (nf, nu) acc ->
      { gl = Dfm_guidelines.Guideline.find cat idx; n_faults = nf; n_undetectable = nu } :: acc)
    tally []
  |> List.sort (fun a b ->
         compare (b.n_undetectable, b.n_faults) (a.n_undetectable, a.n_faults))

let ablation ~name nl =
  let d0 = Design.implement nl in
  let m0 = Design.metrics d0 in
  let lib = nl.N.library in
  let removed =
    Resynth.cells_by_internal_faults lib
    |> List.filteri (fun i _ -> i < 7)
    |> List.map (fun (c : Cell.t) -> c.Cell.name)
  in
  let restricted = Library.restrict lib ~excluded:removed in
  let nl' = Dfm_synth.Convert.remap_full nl ~table:(Dfm_synth.Mapper.build_table restricted) in
  try
    let d1 = Design.implement ~floorplan:d0.Design.floorplan nl' in
    let m1 = Design.metrics d1 in
    {
      ab_circuit = name;
      removed;
      delay_rel = m1.Design.delay /. m0.Design.delay;
      power_rel = m1.Design.power /. m0.Design.power;
      fits = true;
    }
  with Dfm_layout.Place.Does_not_fit _ ->
    { ab_circuit = name; removed; delay_rel = nan; power_rel = nan; fits = false }

(* ---- deterministic report texts (CLI --report, serve daemon) ---- *)

(* Byte-identical to what the analyze subcommand prints after its chatter:
   the serve daemon returns this very string, and the serve smoke test
   diffs daemon output against a one-shot `analyze --report` run. *)
let analyze_report ~name (d : Design.t) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let m = Design.metrics d in
  Format.fprintf ppf "%a@." N.pp_summary d.Design.netlist;
  Format.fprintf ppf "%a@." Design.pp_metrics m;
  let r = table1_row ~name d in
  Format.fprintf ppf "@[<v>Table-I row:@,%a@,%a@]@." pp_table1_header () pp_table1_row r;
  let clusters = d.Design.cluster.Cluster.clusters in
  Format.fprintf ppf "clusters of undetectable faults (largest 8 of %d): %s@."
    (List.length clusters)
    (String.concat " "
       (List.filteri (fun i _ -> i < 8) clusters
       |> List.map (fun c -> string_of_int (List.length c))));
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* Resynthesis summary restricted to run-to-run reproducible facts: no
   wall-clock, no cache-warmth-dependent numbers.  The kill/restart
   resilience test compares this text across a mid-campaign SIGKILL, so the
   accept chain must depend only on inputs. *)
let resynth_report ~name (r : Resynth.result) =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let m0 = Design.metrics r.Resynth.initial and m1 = Design.metrics r.Resynth.final in
  Format.fprintf ppf "resynth %s: accepted %d step(s)@." name r.Resynth.accepted;
  Format.fprintf ppf "original:      U=%d Smax=%d delay=%.3f power=%.3f@." m0.Design.u
    m0.Design.s_max m0.Design.delay m0.Design.power;
  Format.fprintf ppf "resynthesized: U=%d Smax=%d delay=%.3f power=%.3f@." m1.Design.u
    m1.Design.s_max m1.Design.delay m1.Design.power;
  List.iter
    (fun (e : Resynth.event) ->
      if e.Resynth.ev_action = "accept" || e.Resynth.ev_action = "backtrack-accept" then
        Format.fprintf ppf "accept: q=%d phase=%d cell=%s action=%s U=%d Smax=%d@."
          e.Resynth.ev_q e.Resynth.ev_phase
          (Option.value e.Resynth.ev_cell ~default:"-")
          e.Resynth.ev_action e.Resynth.ev_u e.Resynth.ev_smax)
    r.Resynth.trace;
  Format.fprintf ppf "final netlist hash: %s@."
    (Dfm_util.Hash64.to_hex
       (Dfm_util.Hash64.of_string (Dfm_netlist.Netlist_io.to_string r.Resynth.final.Design.netlist)));
  Format.pp_print_flush ppf ();
  Buffer.contents buf
