(* Command-line driver for the DFM resynthesis flow.

   Subcommands:
     list                      enumerate the benchmark blocks
     analyze  CIRCUIT          implement and report fault/cluster metrics
     resynth  CIRCUIT          run the two-phase resynthesis (Section III)
     lint     CIRCUIT          structural + dataflow lint, CI exit codes
     ablate   CIRCUIT          the Section IV restricted-library experiment
     dump     CIRCUIT          write the generated netlist in text format
     cells                     show the library with internal fault counts *)

open Cmdliner

module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Report = Dfm_core.Report
module Circuits = Dfm_circuits.Circuits
module N = Dfm_netlist.Netlist
module Lint = Dfm_lint.Lint

let scale_arg =
  let doc = "Scale factor for the generated blocks (default \\$REPRO_SCALE or 1.0)." in
  Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"S" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the fault-classification engine (default \\$REPRO_JOBS or the \
     machine's recommended domain count).  The classification is bit-identical for every \
     value; 1 disables parallelism."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Every file written on request (reports, netlists, the lint baseline)
   goes through here, so a failed write is a one-line error and exit 2 like
   every other environment error. *)
let write_file path text =
  try Out_channel.with_open_text path (fun oc -> output_string oc text)
  with Sys_error e ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix e then
        String.sub e (String.length prefix) (String.length e - String.length prefix)
      else e
    in
    Fmt.epr "dfm_resynth: cannot write %s: %s@." path reason;
    exit 2

let check_jobs jobs =
  Option.iter
    (fun j ->
      if j < 1 then begin
        Fmt.epr "dfm_resynth: --jobs must be at least 1 (got %d)@." j;
        exit 2
      end)
    jobs

let apply_jobs jobs =
  check_jobs jobs;
  Option.iter Dfm_util.Parallel.set_default_jobs jobs

let failpoint_arg =
  let doc =
    "Arm a deterministic fault-injection site for resilience testing, e.g. \
     $(b,store.append=io), $(b,parallel.task=raise:times=2) or \
     $(b,checkpoint.append=partial:after=3).  Repeatable; specs in \\$REPRO_FAILPOINTS \
     are applied as well."
  in
  Arg.(value & opt_all string [] & info [ "failpoint" ] ~docv:"SPEC" ~doc)

let apply_failpoints specs =
  (match Dfm_util.Failpoint.parse_env () with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "dfm_resynth: REPRO_FAILPOINTS: %s@." e;
      exit 2);
  List.iter
    (fun s ->
      match Dfm_util.Failpoint.parse s with
      | Ok () -> ()
      | Error e ->
          Fmt.epr "dfm_resynth: --failpoint %s: %s@." s e;
          exit 2)
    specs

(* ---- observability ---- *)

let trace_arg =
  let doc =
    "Record hierarchical spans (campaign, q-step, phase, candidate, implement, classify, \
     SAT solve) and write them to $(docv) as Chrome trace-event JSON — load it in \
     Perfetto or chrome://tracing.  Results are bit-identical with or without tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics snapshot (SAT effort, cache traffic, pool load, checkpoint frames, \
     escalation ladder) to $(docv) in Prometheus text exposition format at exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let log_level_arg =
  let doc = "Log verbosity on stderr: $(b,error), $(b,warn) (default), $(b,info) or $(b,debug)." in
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let progress_arg =
  let doc =
    "Show live campaign progress on stderr.  Bare $(b,--progress) (mode $(b,auto)) redraws \
     a one-line display when stderr is a terminal and emits nothing otherwise; \
     $(b,--progress=plain) prints one line per update, suitable for logs and CI."
  in
  let modes =
    Arg.enum [ ("auto", Dfm_obs.Progress.Auto); ("plain", Dfm_obs.Progress.Plain) ]
  in
  Arg.(
    value
    & opt ~vopt:(Some Dfm_obs.Progress.Auto) (some modes) None
    & info [ "progress" ] ~docv:"MODE" ~doc)

type obs = { trace : string option; metrics : string option }

let apply_log_level log_level =
  Option.iter
    (fun s ->
      match Dfm_obs.Log.level_of_string s with
      | Some l -> Dfm_obs.Log.set_level l
      | None ->
          Fmt.epr "dfm_resynth: --log-level %s: expected error, warn, info or debug@." s;
          exit 2)
    log_level

let apply_obs trace metrics log_level progress =
  Dfm_obs.Log.set_sink (Some Dfm_obs.Log.stderr_sink);
  apply_log_level log_level;
  if trace <> None then Dfm_obs.Span.set_enabled true;
  (* Duration histograms need clock reads; pay for them only when some
     exporter will consume the data. *)
  if trace <> None || metrics <> None then Dfm_obs.Metrics.set_timing_enabled true;
  (match progress with
  | None -> Dfm_obs.Progress.set_enabled false
  | Some m ->
      Dfm_obs.Progress.set_mode m;
      Dfm_obs.Progress.set_enabled true);
  { trace; metrics }

let finish_obs o =
  Dfm_obs.Progress.finish ();
  (match o.trace with
  | None -> ()
  | Some path ->
      Dfm_obs.Export.write_chrome_trace path (Dfm_obs.Span.drain ());
      Fmt.pr "wrote trace %s@." path);
  match o.metrics with
  | None -> ()
  | Some path ->
      Dfm_obs.Export.write_prometheus path (Dfm_obs.Metrics.snapshot ());
      Fmt.pr "wrote metrics %s@." path

let max_conflicts_arg =
  let doc =
    "Bound every classification SAT query to $(docv) solver conflicts.  Faults the budget \
     aborts are retried on a geometric budget ladder (x4 per rung, capped total effort); \
     any residue is reported, never silently dropped."
  in
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc)

let certify_arg =
  let doc =
    "Verify every emitted verdict against an independent certificate: Detected faults by \
     re-simulating their witness test vector, Undetectable faults by replaying the \
     solver's UNSAT proof through an independent unit-propagation checker, cache hits by \
     their stored certificate mark, verdicts a campaign carries around a remapped region \
     by a checked proof of that region, accepted ECOs by a checked equivalence proof.  \
     Results are bit-identical to an uncertified run; a failed check aborts with exit 4.  \
     Also enabled by \\$REPRO_CERTIFY=1."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let certify_enabled flag =
  flag
  ||
  match Sys.getenv_opt "REPRO_CERTIFY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* The certification summary goes to stderr: certified stdout must stay
   byte-identical to the uncertified run's (the test suite diffs them). *)
let report_certify certify =
  if certify then begin
    let t = Dfm_sat.Cert.totals () in
    Fmt.epr "certify: %d certificate check(s), %d failed@." t.Dfm_sat.Cert.checked
      t.Dfm_sat.Cert.failed
  end

let certify_failed msg =
  Fmt.epr "dfm_resynth: certification failed: %s@." msg;
  exit 4

let cache_dir_arg =
  let doc =
    "Directory for the persistent fault-verdict cache (default \\$REPRO_CACHE; unset \
     disables caching).  Verdicts of structurally unchanged fault cones are reused across \
     invocations; results are bit-identical either way."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let expect_hits_arg =
  let doc =
    "Fail (exit 3) unless the verdict cache served at least one hit — used by the test \
     suite to assert warm-cache behaviour."
  in
  Arg.(value & flag & info [ "expect-cache-hits" ] ~doc)

let make_cache dir =
  let explicit = dir <> None in
  match (match dir with Some _ -> dir | None -> Sys.getenv_opt "REPRO_CACHE") with
  | None -> None
  | Some d ->
      let c = Dfm_incr.Cache.create ~dir:d ~log:(fun s -> Fmt.pr "%s@." s) () in
      (* An implicit (env-provided) cache dir degrades to memory-only like
         any other disk failure; an explicitly requested one that cannot be
         opened is a user error and fails loudly. *)
      if explicit && (Dfm_incr.Cache.stats c).Dfm_incr.Store.degraded then begin
        Fmt.epr "dfm_resynth: cache directory %s is not usable@." d;
        exit 2
      end;
      Some c

let checkpoint_dir_arg =
  let doc =
    "Directory for the campaign checkpoint journal.  Every accepted design point is \
     journaled; a killed run re-invoked with $(b,--resume) continues from the last accept \
     and finishes bit-identically to an uninterrupted run."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc = "Resume from the journal in $(b,--checkpoint-dir) instead of starting fresh." in
  Arg.(value & flag & info [ "resume" ] ~doc)

let make_checkpoint dir resume =
  match dir with
  | None ->
      if resume then begin
        Fmt.epr "dfm_resynth: --resume requires --checkpoint-dir@.";
        exit 2
      end;
      None
  | Some d ->
      (try if not (Sys.file_exists d) then Sys.mkdir d 0o755
       with Sys_error e ->
         Fmt.epr "dfm_resynth: cannot create checkpoint directory %s: %s@." d e;
         exit 2);
      if not (Sys.is_directory d) then begin
        Fmt.epr "dfm_resynth: checkpoint path %s is not a directory@." d;
        exit 2
      end;
      (* Probe writability now: an unwritable journal must fail before the
         campaign spends hours, not at the first accept. *)
      let probe = Filename.concat d ".probe" in
      (try
         let oc = open_out probe in
         close_out oc;
         Sys.remove probe
       with Sys_error e ->
         Fmt.epr "dfm_resynth: checkpoint directory %s is not writable: %s@." d e;
         exit 2);
      Some { Resynth.path = Filename.concat d "campaign.ckpt"; resume }

let report_cache ~expect_hits cache =
  match cache with
  | None ->
      if expect_hits then begin
        Fmt.epr "--expect-cache-hits without a cache (--cache-dir or REPRO_CACHE)@.";
        exit 3
      end
  | Some c ->
      let st = Dfm_incr.Cache.stats c in
      Fmt.pr "cache: %d hits / %d lookups (%.1f%% hit rate), %d new verdicts stored, %d from disk@."
        st.Dfm_incr.Store.hits
        (st.Dfm_incr.Store.hits + st.Dfm_incr.Store.misses)
        (100.0 *. Dfm_incr.Cache.hit_rate c)
        st.Dfm_incr.Store.stores st.Dfm_incr.Store.disk_loaded;
      Dfm_incr.Cache.close c;
      if expect_hits && st.Dfm_incr.Store.hits = 0 then begin
        Fmt.epr "expected cache hits, saw none@.";
        exit 3
      end

let circuit_arg =
  let doc =
    "Benchmark block name (see the list subcommand), or the path of a netlist file in the \
     text format of the dump subcommand (--scale is ignored for files)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CIRCUIT" ~doc)

(* A path-looking argument ("./x", "a/b", "x.nl") is treated as a netlist
   file; everything else must be a known generated block. *)
let looks_like_path name = String.contains name '/' || Filename.check_suffix name ".nl"

let build ?scale name =
  if List.mem name Circuits.names then Circuits.build ?scale name
  else if Sys.file_exists name && not (Sys.is_directory name) then begin
    try Dfm_netlist.Netlist_io.read_file ~library:Dfm_cellmodel.Osu018.library name
    with Failure e | Sys_error e ->
      Fmt.epr "dfm_resynth: cannot read netlist %s: %s@." name e;
      exit 2
  end
  else if looks_like_path name then begin
    Fmt.epr "dfm_resynth: netlist file %s does not exist@." name;
    exit 2
  end
  else begin
    Fmt.epr "dfm_resynth: unknown circuit %s; known: %s@." name
      (String.concat " " Circuits.names);
    exit 2
  end

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let nl = build ~scale:0.25 name in
        Fmt.pr "%-12s (at scale 0.25: %d gates, %d PIs, %d POs)@." name (N.num_gates nl)
          (Array.length nl.N.pis) (Array.length nl.N.pos))
      Circuits.names
  in
  Cmd.v (Cmd.info "list" ~doc:"List the twelve benchmark blocks.")
    Term.(const run $ const ())

(* ---- cells ---- *)

let cells_cmd =
  let run () =
    Fmt.pr "%-10s %5s %6s %8s %9s@." "cell" "pins" "trans" "area" "int.faults";
    List.iter
      (fun (c : Dfm_netlist.Cell.t) ->
        Fmt.pr "%-10s %5d %6d %8.1f %9d@." c.Dfm_netlist.Cell.name
          (Dfm_netlist.Cell.arity c) c.Dfm_netlist.Cell.transistors c.Dfm_netlist.Cell.area
          (Dfm_cellmodel.Udfm.internal_fault_count c.Dfm_netlist.Cell.name))
      (Resynth.cells_by_internal_faults Dfm_cellmodel.Osu018.library
      @ Dfm_netlist.Library.sequential Dfm_cellmodel.Osu018.library)
  in
  Cmd.v
    (Cmd.info "cells"
       ~doc:"Show the 21-cell library ordered by internal DFM fault count.")
    Term.(const run $ const ())

(* ---- analyze ---- *)

let report_file_arg =
  let doc =
    "Also write the deterministic report (netlist summary, metrics, Table-I row, cluster \
     sizes — exactly the bytes printed on stdout after the progress chatter) to $(docv).  \
     The serve daemon returns the same bytes for an equivalent analyze job; the serve \
     smoke test diffs the two."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let analyze_cmd =
  let run name scale jobs cache_dir expect_hits max_conflicts certify failpoints
      report_file trace metrics log_level progress =
    apply_jobs jobs;
    apply_failpoints failpoints;
    let certify = certify_enabled certify in
    let obs = apply_obs trace metrics log_level progress in
    let nl = build ?scale name in
    Fmt.pr "building and implementing %s ...@." name;
    let cache = make_cache cache_dir in
    let d =
      try
        Design.implement ?cache ?max_conflicts ~certify nl
      with Dfm_sat.Cert.Check_failed msg -> certify_failed msg
    in
    (match d.Design.classification.Dfm_atpg.Atpg.escalation with
    | Some es ->
        Fmt.pr "escalation: %d retries over %d rungs resolved %d abort(s), %d residual@."
          es.Dfm_atpg.Atpg.retried es.Dfm_atpg.Atpg.rungs es.Dfm_atpg.Atpg.resolved
          es.Dfm_atpg.Atpg.residual
    | None -> ());
    let report = Report.analyze_report ~name d in
    print_string report;
    Option.iter (fun path -> write_file path report) report_file;
    report_cache ~expect_hits cache;
    report_certify certify;
    finish_obs obs
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Implement a block and report its fault clustering.")
    Term.(
      const run $ circuit_arg $ scale_arg $ jobs_arg $ cache_dir_arg $ expect_hits_arg
      $ max_conflicts_arg $ certify_arg $ failpoint_arg $ report_file_arg $ trace_arg
      $ metrics_arg $ log_level_arg $ progress_arg)

(* ---- lint ---- *)

let lint_cmd =
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Suppress findings listed in $(docv) (one $(b,RULE kind:name) entry per line, \
             $(b,#) comments allowed).")
  in
  let write_baseline =
    Arg.(
      value & flag
      & info [ "write-baseline" ]
          ~doc:
            "Write every current finding to the $(b,--baseline) file (accepting the current \
             state) and exit 0.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Fail on warnings too, not only on errors.")
  in
  let fanout_limit =
    Arg.(
      value
      & opt int Lint.default_config.Lint.fanout_limit
      & info [ "fanout-limit" ] ~docv:"N" ~doc:"Fanout threshold for rule L009.")
  in
  let run name scale json baseline write_baseline strict fanout_limit =
    if fanout_limit < 1 then begin
      Fmt.epr "dfm_resynth: --fanout-limit must be at least 1 (got %d)@." fanout_limit;
      exit 2
    end;
    let nl = build ?scale name in
    let config = { Lint.default_config with Lint.fanout_limit } in
    let report = Lint.check ~config nl in
    if write_baseline then begin
      match baseline with
      | None ->
          Fmt.epr "dfm_resynth: --write-baseline requires --baseline@.";
          exit 2
      | Some path ->
          write_file path (Lint.baseline_of_report report);
          Fmt.pr "wrote %d baseline entr%s to %s@."
            (List.length report.Lint.findings)
            (if List.length report.Lint.findings = 1 then "y" else "ies")
            path
    end
    else begin
      let base =
        match baseline with
        | None -> Lint.empty_baseline
        | Some path -> (
            try Lint.load_baseline path
            with Sys_error e | Failure e ->
              Fmt.epr "dfm_resynth: --baseline %s: %s@." path e;
              exit 2)
      in
      let kept, suppressed = Lint.suppress base report in
      if json then print_string (Lint.to_json kept)
      else begin
        Format.printf "%a" Lint.pp_text kept;
        if suppressed <> [] then
          Fmt.pr "(%d finding(s) suppressed by the baseline)@." (List.length suppressed)
      end;
      let fails =
        Lint.errors kept <> [] || (strict && Lint.warnings kept <> [])
      in
      exit (if fails then 1 else 0)
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check a block (or netlist file) against the structural and dataflow lint rules.  \
          Exits 0 when no unsuppressed error (with --strict: or warning) remains, 1 \
          otherwise — CI-friendly.")
    Term.(
      const run $ circuit_arg $ scale_arg $ json $ baseline_arg $ write_baseline $ strict
      $ fanout_limit)

(* ---- resynth ---- *)

let resynth_cmd =
  let q_max =
    Arg.(value & opt int 5 & info [ "q-max" ] ~docv:"Q" ~doc:"Maximum delay/power increase, percent.")
  in
  let p1 =
    Arg.(value & opt float 1.0 & info [ "p1" ] ~docv:"P" ~doc:"Phase-1 cluster-size target, percent of |F|.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the resynthesized netlist (text format) to \\$(docv).")
  in
  let run name scale jobs q_max p1 out max_conflicts certify failpoints checkpoint_dir resume
      trace metrics log_level progress =
    apply_jobs jobs;
    apply_failpoints failpoints;
    let certify = certify_enabled certify in
    let obs = apply_obs trace metrics log_level progress in
    let checkpoint = make_checkpoint checkpoint_dir resume in
    let nl = build ?scale name in
    Fmt.pr "implementing %s ...@." name;
    let r =
      (* The whole campaign — initial implement included — sits under one
         handler: with --checkpoint-dir, any injected or I/O death becomes
         a one-line "campaign aborted" + exit 2, never a backtrace. *)
      try
        let d0 = Design.implement ?max_conflicts ~certify nl in
        Fmt.pr "original:      %a@." Design.pp_metrics (Design.metrics d0);
        Resynth.run ~p1_percent:p1 ~q_max ?max_conflicts ~certify ?checkpoint d0
      with
      | Dfm_sat.Cert.Check_failed msg -> certify_failed msg
      | Dfm_core.Checkpoint.Error msg ->
          Fmt.epr "dfm_resynth: %s@." msg;
          exit 2
      | Sys_error msg when Option.is_some checkpoint ->
          (* The journal writer is loud by design: a failed append kills the
             campaign rather than silently losing the resume point. *)
          Fmt.epr "dfm_resynth: campaign aborted: %s (re-run with --resume)@." msg;
          exit 2
      | Dfm_util.Failpoint.Injected site when Option.is_some checkpoint ->
          Fmt.epr "dfm_resynth: campaign aborted: injected failure at %s (re-run with --resume)@."
            site;
          exit 2
    in
    Fmt.pr "resynthesized: %a@." Design.pp_metrics (Design.metrics r.Resynth.final);
    Fmt.pr "effort: %a@." Report.pp_effort r;
    let orig, resyn = Report.table2_rows ~name r in
    Fmt.pr "@[<v>Table-II rows:@,%a@,%a@,%a@]@." Report.pp_table2_header ()
      Report.pp_table2_row orig Report.pp_table2_row resyn;
    (match
       try Dfm_atpg.Equiv_sat.check ~certify nl r.Resynth.final.Design.netlist
       with Dfm_sat.Cert.Check_failed msg -> certify_failed msg
     with
    | Dfm_atpg.Equiv_sat.Equivalent -> Fmt.pr "equivalence: PROVEN@."
    | Dfm_atpg.Equiv_sat.Different l -> Fmt.pr "equivalence: FAILED at %s@." l
    | Dfm_atpg.Equiv_sat.Interface_mismatch m -> Fmt.pr "equivalence: interface %s@." m);
    report_certify certify;
    (match out with
    | None -> ()
    | Some path ->
        write_file path (Dfm_netlist.Netlist_io.to_string r.Resynth.final.Design.netlist);
        Fmt.pr "wrote %s@." path);
    finish_obs obs
  in
  Cmd.v
    (Cmd.info "resynth"
       ~doc:"Run the two-phase resynthesis procedure of the paper on a block.")
    Term.(
      const run $ circuit_arg $ scale_arg $ jobs_arg $ q_max $ p1 $ out $ max_conflicts_arg
      $ certify_arg $ failpoint_arg $ checkpoint_dir_arg $ resume_arg $ trace_arg $ metrics_arg
      $ log_level_arg $ progress_arg)

(* ---- ablate ---- *)

let ablate_cmd =
  let run name scale jobs =
    apply_jobs jobs;
    let nl = build ?scale name in
    let row = Report.ablation ~name nl in
    Fmt.pr "removed cells: %s@." (String.concat " " row.Report.removed);
    if row.Report.fits then
      Fmt.pr "delay %.1f%%, power %.1f%% of the original design@."
        (100.0 *. row.Report.delay_rel)
        (100.0 *. row.Report.power_rel)
    else Fmt.pr "restricted design no longer fits the original floorplan@."
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:"Synthesize with the 7 largest cells removed (Section IV ablation).")
    Term.(const run $ circuit_arg $ scale_arg $ jobs_arg)

(* ---- paths ---- *)

let paths_cmd =
  let k = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"How many paths to report.") in
  let run name scale k =
    let nl = build ?scale name in
    let fp = Dfm_layout.Floorplan.create nl in
    let pl = Dfm_layout.Place.place nl fp in
    let rt = Dfm_layout.Route.route pl in
    let rep = Dfm_timing.Sta.analyze rt in
    Fmt.pr "critical-path delay: %.3f ns (endpoint %s)@."
      rep.Dfm_timing.Sta.critical_path_delay rep.Dfm_timing.Sta.worst_endpoint;
    List.iter
      (fun p -> Format.printf "%a" Dfm_timing.Paths.pp_path p)
      (Dfm_timing.Paths.critical_paths ~k rt rep);
    let drc = Dfm_layout.Drc.check rt in
    Fmt.pr "DRC: %d errors, %d warnings@." drc.Dfm_layout.Drc.errors drc.Dfm_layout.Drc.warnings
  in
  Cmd.v (Cmd.info "paths" ~doc:"Report the K most critical paths of a placed-and-routed block.")
    Term.(const run $ circuit_arg $ scale_arg $ k)

(* ---- verilog ---- *)

let verilog_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path (default: stdout).")
  in
  let run name scale out =
    let nl = build ?scale name in
    let text = Dfm_netlist.Verilog.to_string nl in
    match out with
    | None -> print_string text
    | Some path ->
        write_file path text;
        Fmt.pr "wrote %s@." path
  in
  Cmd.v (Cmd.info "verilog" ~doc:"Write a generated block as structural Verilog.")
    Term.(const run $ circuit_arg $ scale_arg $ out)

(* ---- dump ---- *)

let dump_cmd =
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path (default: stdout).")
  in
  let run name scale out =
    let nl = build ?scale name in
    let text = Dfm_netlist.Netlist_io.to_string nl in
    match out with None -> print_string text | Some path -> write_file path text
  in
  Cmd.v (Cmd.info "dump" ~doc:"Write a generated block in the text netlist format.")
    Term.(const run $ circuit_arg $ scale_arg $ out)

(* ---- serve: the campaign service ---- *)

module Serve_daemon = Dfm_serve.Daemon
module Serve_client = Dfm_serve.Client
module Serve_proto = Dfm_serve.Protocol

let socket_arg =
  let doc = "Unix-domain socket of the campaign service." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let state_dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Daemon state: the job ledger, the shared verdict cache, and one checkpoint \
             journal per resynthesis job.  Restarting on the same directory re-enqueues \
             incomplete jobs and resumes their campaigns.")
  in
  let run socket state_dir jobs certify failpoints log_level =
    apply_jobs jobs;
    apply_failpoints failpoints;
    let certify = certify_enabled certify in
    apply_log_level log_level;
    let cfg =
      {
        Serve_daemon.socket_path = socket;
        state_dir;
        jobs = (match jobs with Some j -> j | None -> Dfm_util.Parallel.default_jobs ());
        certify;
      }
    in
    match Serve_daemon.run cfg with
    | completed -> Fmt.pr "serve: drained after %d job(s)@." completed
    | exception Serve_daemon.Startup_error msg ->
        Fmt.epr "dfm_resynth: serve: %s@." msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service: a daemon accepting concurrent analyze/resynth/lint \
          jobs from multiple clients with fair-share scheduling over one shared verdict \
          cache.  Job results are byte-identical to the equivalent one-shot run.")
    Term.(
      const run $ socket_arg $ state_dir $ jobs_arg $ certify_arg $ failpoint_arg
      $ log_level_arg)

let client_name_arg =
  let doc = "Client (tenant) name for fair-share scheduling and cache accounting." in
  Arg.(value & opt string "cli" & info [ "client" ] ~docv:"NAME" ~doc)

let with_client socket f =
  match Serve_client.connect socket with
  | Error e ->
      Fmt.epr "dfm_resynth: %s@." e;
      exit 2
  | Ok c ->
      let r = f c in
      Serve_client.close c;
      r

(* One control request to a running daemon.  A transport error exits 2,
   the daemon's refusal exits 1, and a reply [handle] does not accept
   exits 2, each with one line "dfm_resynth: NAME: ...". *)
let control name socket req handle =
  with_client socket @@ fun c ->
  match Serve_client.request c req with
  | Error e ->
      Fmt.epr "dfm_resynth: %s: %s@." name e;
      exit 2
  | Ok (Serve_proto.Error_msg m) ->
      Fmt.epr "dfm_resynth: %s: %s@." name m;
      exit 1
  | Ok r ->
      if not (handle r) then begin
        Fmt.epr "dfm_resynth: %s: unexpected response@." name;
        exit 2
      end

let submit_cmd =
  let kind =
    let kinds =
      Arg.enum
        [
          ("analyze", Serve_proto.Analyze);
          ("resynth", Serve_proto.Resynth);
          ("lint", Serve_proto.Lint);
        ]
    in
    Arg.(
      value & opt kinds Serve_proto.Analyze
      & info [ "kind" ] ~docv:"KIND" ~doc:"Job kind: analyze (default), resynth or lint.")
  in
  let max_seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Wall-clock limit; a resynthesis over it is stopped at the next design-point \
             boundary (its journal is kept).")
  in
  let q_max =
    Arg.(value & opt (some int) None & info [ "q-max" ] ~docv:"Q" ~doc:"Resynth: max delay/power increase, percent.")
  in
  let p1 =
    Arg.(value & opt (some float) None & info [ "p1" ] ~docv:"P" ~doc:"Resynth: phase-1 cluster-size target, percent of |F|.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Resynth: write the returned final netlist to \\$(docv).")
  in
  let events =
    Arg.(value & flag & info [ "events" ] ~doc:"Print streamed job events (log, progress) on stderr.")
  in
  let run name scale socket client kind jobs max_conflicts max_seconds q_max p1 report_file
      out events =
    check_jobs jobs;
    let nl = build ?scale name in
    let sub =
      {
        Serve_proto.client;
        kind;
        (* The job label is the argument verbatim: the report must be
           byte-identical to `analyze <same-argument> --report`. *)
        name;
        netlist = Dfm_netlist.Netlist_io.to_string nl;
        limits = { Serve_proto.jobs; max_conflicts; max_seconds };
        static_filter = false;
        sat_mode = None;
        q_max;
        p1;
      }
    in
    let on_event ~job:_ ~stream ~data =
      if events then Fmt.epr "[%s] %s@." stream data
    in
    with_client socket @@ fun c ->
    match Serve_client.submit_and_wait ~on_event c sub with
    | Error e ->
        Fmt.epr "dfm_resynth: submit: %s@." e;
        exit 2
    | Ok r ->
        print_string r.Serve_proto.r_report;
        Option.iter (fun path -> write_file path r.Serve_proto.r_report) report_file;
        (match (out, r.Serve_proto.r_netlist) with
        | Some path, Some text -> write_file path text
        | Some _, None -> Fmt.epr "submit: no netlist in result (kind %s)@."
              (Serve_proto.kind_to_string kind)
        | None, _ -> ());
        if r.Serve_proto.r_outcome <> "done" then begin
          Fmt.epr "dfm_resynth: job %s: %s@." r.Serve_proto.r_job r.Serve_proto.r_outcome;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a job to a running campaign service and wait for its result.  The block \
          is built (or read) locally and shipped inline; the report comes back \
          byte-identical to the equivalent one-shot run.")
    Term.(
      const run $ circuit_arg $ scale_arg $ socket_arg $ client_name_arg $ kind $ jobs_arg
      $ max_conflicts_arg $ max_seconds $ q_max $ p1 $ report_file_arg $ out $ events)

let await_cmd =
  let job = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the job's final netlist (if any) to \\$(docv).")
  in
  let run socket job report_file out =
    with_client socket @@ fun c ->
    match Serve_client.await c job with
    | Error e ->
        Fmt.epr "dfm_resynth: await: %s@." e;
        exit 2
    | Ok r ->
        print_string r.Serve_proto.r_report;
        Option.iter (fun path -> write_file path r.Serve_proto.r_report) report_file;
        (match (out, r.Serve_proto.r_netlist) with
        | Some path, Some text -> write_file path text
        | _ -> ());
        if r.Serve_proto.r_outcome <> "done" then begin
          Fmt.epr "dfm_resynth: job %s: %s@." r.Serve_proto.r_job r.Serve_proto.r_outcome;
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "await"
       ~doc:
         "Wait for a job's result by id — including a job resumed by a restarted daemon, \
          whose submitting connection died with the previous process.")
    Term.(const run $ socket_arg $ job $ report_file_arg $ out)

let status_cmd =
  let run socket =
    control "status" socket (Serve_proto.Status None) @@ function
    | Serve_proto.Status_report { draining; jobs; clients } ->
        if draining then Fmt.pr "daemon: draining@.";
        Fmt.pr "%-6s %-12s %-8s %-14s %-9s %s@." "job" "client" "kind" "name" "state" "detail";
        List.iter
          (fun (j : Serve_proto.job_view) ->
            Fmt.pr "%-6s %-12s %-8s %-14s %-9s %s@." j.Serve_proto.jv_id
              j.Serve_proto.jv_client
              (Serve_proto.kind_to_string j.Serve_proto.jv_kind)
              j.Serve_proto.jv_name
              (Serve_proto.state_to_string j.Serve_proto.jv_state)
              j.Serve_proto.jv_detail)
          jobs;
        List.iter
          (fun (cv : Serve_proto.client_view) ->
            Fmt.pr "client %s: %d job(s), %.2fs service, cache %d hits / %d misses@."
              cv.Serve_proto.cv_client cv.Serve_proto.cv_jobs cv.Serve_proto.cv_service_s
              cv.Serve_proto.cv_cache_hits cv.Serve_proto.cv_cache_misses)
          clients;
        true
    | _ -> false
  in
  Cmd.v (Cmd.info "status" ~doc:"Show the jobs and per-client accounts of a campaign service.")
    Term.(const run $ socket_arg)

let cancel_cmd =
  let job = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB" ~doc:"Job id.") in
  let run socket job =
    control "cancel" socket (Serve_proto.Cancel job) @@ function
    | Serve_proto.Ok_resp ->
        Fmt.pr "cancelled %s@." job;
        true
    | _ -> false
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a job: a queued job immediately, a running resynthesis at its next \
          design-point boundary (its journal is kept).")
    Term.(const run $ socket_arg $ job)

let drain_cmd =
  let run socket =
    control "drain" socket Serve_proto.Drain @@ function
    | Serve_proto.Drained { completed } ->
        Fmt.pr "drained: %d job(s) completed over the daemon's lifetime@." completed;
        true
    | _ -> false
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Finish the queued jobs, refuse new ones, and shut the campaign service down.")
    Term.(const run $ socket_arg)

(* ---- live telemetry: trace --follow, top, flight-dump ---- *)

let telemetry_subscribe c sub =
  match Serve_client.subscribe_telemetry c sub with
  | Ok () -> ()
  | Error e ->
      Fmt.epr "dfm_resynth: telemetry: %s@." e;
      exit 2

let trace_follow_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Output trace file (Chrome trace-event JSON).")
  in
  let follow =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Keep streaming until the daemon goes away (default: stop after the first span \
             batch).  The file is atomically rewritten per batch, so it is a valid \
             Perfetto-loadable trace at every instant.")
  in
  let batches =
    Arg.(
      value
      & opt (some int) None
      & info [ "batches" ] ~docv:"N" ~doc:"Stop after $(docv) span batches (test hook).")
  in
  let run socket file follow batches =
    with_client socket @@ fun c ->
    telemetry_subscribe c
      { Serve_proto.t_spans = true; t_metrics = false; t_families = []; t_interval_ms = None };
    (* Streamed spans are "X" complete events: each batch appends finished
       spans, so the accumulated array is always a well-formed trace. *)
    let events = ref [] in
    let write () =
      Dfm_obs.Export.write_atomic file
        ("{\"traceEvents\":[" ^ String.concat ",\n" (List.rev !events) ^ "]}\n")
    in
    write ();
    let stop = match batches with Some n -> n | None -> if follow then max_int else 1 in
    let rec go n =
      if n < stop then
        match Serve_client.next_telemetry c with
        | Error e -> Fmt.epr "trace: stream ended: %s@." e
        | Ok ("spans", data) ->
            let lines =
              List.filter (fun s -> s <> "") (String.split_on_char '\n' data)
            in
            events := List.rev_append lines !events;
            write ();
            go (n + 1)
        | Ok _ -> go n
    in
    go 0;
    Fmt.pr "wrote trace %s (%d events)@." file (List.length !events)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Stream live spans from a campaign service into a Chrome/Perfetto trace file.  \
          With --follow the file tracks the daemon until interrupted and is valid at \
          every instant.")
    Term.(const run $ socket_arg $ file $ follow $ batches)

(* A tolerant reader for the daemon's own Prometheus frames: enough of the
   exposition grammar to aggregate labelled counters per tenant. *)
let prom_samples text =
  let parse_labels s =
    (* comma-separated key=value pairs, values quoted with backslash escapes *)
    let out = ref [] and buf = Buffer.create 16 and key = ref "" in
    let inq = ref false and esc = ref false in
    let flush_pair () =
      if !key <> "" then out := (!key, Buffer.contents buf) :: !out;
      key := "";
      Buffer.clear buf
    in
    String.iter
      (fun ch ->
        if !esc then begin
          Buffer.add_char buf (match ch with 'n' -> '\n' | c -> c);
          esc := false
        end
        else if !inq then
          match ch with
          | '\\' -> esc := true
          | '"' -> inq := false
          | c -> Buffer.add_char buf c
        else
          match ch with
          | '"' -> inq := true
          | '=' ->
              key := Buffer.contents buf;
              Buffer.clear buf
          | ',' -> flush_pair ()
          | ' ' | '\t' -> ()
          | c -> Buffer.add_char buf c)
      s;
    flush_pair ();
    List.rev !out
  in
  let parse_line line =
    if line = "" || line.[0] = '#' then None
    else
      let name_end =
        match (String.index_opt line '{', String.index_opt line ' ') with
        | Some b, Some sp when b < sp -> b
        | _, Some sp -> sp
        | _ -> String.length line
      in
      let name = String.sub line 0 name_end in
      let labels, rest_at =
        if name_end < String.length line && line.[name_end] = '{' then begin
          (* find the closing brace outside quotes *)
          let n = String.length line in
          let rec close i inq esc =
            if i >= n then None
            else if esc then close (i + 1) inq false
            else
              match line.[i] with
              | '\\' when inq -> close (i + 1) inq true
              | '"' -> close (i + 1) (not inq) false
              | '}' when not inq -> Some i
              | _ -> close (i + 1) inq false
          in
          match close (name_end + 1) false false with
          | None -> ([], n)
          | Some cb ->
              (parse_labels (String.sub line (name_end + 1) (cb - name_end - 1)), cb + 1)
        end
        else ([], name_end)
      in
      let v =
        float_of_string_opt
          (String.trim (String.sub line rest_at (String.length line - rest_at)))
      in
      Option.map (fun v -> (name, labels, v)) v
  in
  List.filter_map parse_line (String.split_on_char '\n' text)

type top_row = {
  mutable tr_queries : float;
  mutable tr_conflicts : float;
  mutable tr_hits : float;
  mutable tr_misses : float;
  mutable tr_cert : float;
}

let top_cmd =
  let interval =
    Arg.(
      value & opt int 1000
      & info [ "interval" ] ~docv:"MS" ~doc:"Refresh interval in milliseconds.")
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N" ~doc:"Exit after $(docv) refreshes (default: forever).")
  in
  let run socket interval count =
    with_client socket @@ fun c ->
    telemetry_subscribe c
      {
        Serve_proto.t_spans = false;
        t_metrics = true;
        t_families = [ "dfm_sat_"; "dfm_atpg_"; "dfm_cache_"; "dfm_cert_"; "dfm_serve_" ];
        t_interval_ms = Some interval;
      };
    let tty = Unix.isatty Unix.stdout in
    let prev = Hashtbl.create 8 in
    let last_t = ref (Unix.gettimeofday ()) in
    let render data =
      let t = Unix.gettimeofday () in
      let dt = Float.max 0.05 (t -. !last_t) in
      last_t := t;
      let rows = Hashtbl.create 8 in
      let row tenant =
        match Hashtbl.find_opt rows tenant with
        | Some r -> r
        | None ->
            let r =
              { tr_queries = 0.; tr_conflicts = 0.; tr_hits = 0.; tr_misses = 0.; tr_cert = 0. }
            in
            Hashtbl.add rows tenant r;
            r
      in
      let qwait_sum = ref 0. and qwait_count = ref 0. in
      List.iter
        (fun (name, labels, v) ->
          (match name with
          | "dfm_serve_queue_wait_ms_sum" -> qwait_sum := v
          | "dfm_serve_queue_wait_ms_count" -> qwait_count := v
          | _ -> ());
          match List.assoc_opt "tenant" labels with
          | None -> ()
          | Some tenant -> (
              let r = row tenant in
              match name with
              | "dfm_atpg_sat_queries_total" -> r.tr_queries <- r.tr_queries +. v
              | "dfm_sat_conflicts_total" -> r.tr_conflicts <- r.tr_conflicts +. v
              | "dfm_cache_hits_total" -> r.tr_hits <- r.tr_hits +. v
              | "dfm_cache_misses_total" -> r.tr_misses <- r.tr_misses +. v
              | "dfm_cert_checked_total" -> r.tr_cert <- r.tr_cert +. v
              | _ -> ()))
        (prom_samples data);
      if tty then Fmt.pr "\027[H\027[2J";
      Fmt.pr "dfm top — avg queue wait %.1f ms over %.0f job(s)@."
        (if !qwait_count > 0. then !qwait_sum /. !qwait_count else 0.)
        !qwait_count;
      Fmt.pr "%-16s %10s %12s %10s %10s@." "tenant" "sat q/s" "conflicts" "cache hit%" "certified";
      let tenants = Hashtbl.fold (fun k _ acc -> k :: acc) rows [] in
      List.iter
        (fun tenant ->
          let r = Hashtbl.find rows tenant in
          let prev_q =
            match Hashtbl.find_opt prev tenant with Some q -> q | None -> r.tr_queries
          in
          Hashtbl.replace prev tenant r.tr_queries;
          let lookups = r.tr_hits +. r.tr_misses in
          Fmt.pr "%-16s %10.1f %12.0f %10.1f %10.0f@." tenant
            ((r.tr_queries -. prev_q) /. dt)
            r.tr_conflicts
            (if lookups > 0. then 100. *. r.tr_hits /. lookups else 0.)
            r.tr_cert)
        (List.sort compare tenants);
      Fmt.pr "%!"
    in
    let stop = match count with Some n -> n | None -> max_int in
    let rec go n =
      if n < stop then
        match Serve_client.next_telemetry c with
        | Error e -> Fmt.epr "top: stream ended: %s@." e
        | Ok ("metrics", data) ->
            render data;
            go (n + 1)
        | Ok _ -> go n
    in
    go 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live per-tenant view of a campaign service: SAT query rate, conflicts, cache hit \
          rate and certified checks, refreshed from the daemon's telemetry stream.")
    Term.(const run $ socket_arg $ interval $ count)

let flight_dump_cmd =
  let run socket =
    control "flight-dump" socket Serve_proto.Dump @@ function
    | Serve_proto.Dumped { trace; text } ->
        Fmt.pr "flight recorder dumped:@.  %s@.  %s@." trace text;
        true
    | _ -> false
  in
  Cmd.v
    (Cmd.info "flight-dump"
       ~doc:
         "Ask a running campaign service to write a flight-recorder dump (recent spans, \
          logs and metrics) under its state directory — same artifacts a crash or SIGUSR2 \
          produces.")
    Term.(const run $ socket_arg)

let () =
  let info =
    Cmd.info "dfm_resynth"
      ~doc:"Resynthesis for avoiding undetectable DFM faults (DATE 2019 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; cells_cmd; analyze_cmd; resynth_cmd; lint_cmd; ablate_cmd; paths_cmd;
            verilog_cmd; dump_cmd; serve_cmd; submit_cmd; await_cmd; status_cmd; cancel_cmd;
            drain_cmd; trace_follow_cmd; top_cmd; flight_dump_cmd ]))
