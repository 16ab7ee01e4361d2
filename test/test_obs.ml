(* The observability subsystem: leveled logging, the metrics registry,
   hierarchical spans, the exporters — and the subsystem's one hard
   invariant, result transparency: a campaign run with every collector
   enabled is bit-identical to the same campaign with everything off. *)

module Log = Dfm_obs.Log
module Metrics = Dfm_obs.Metrics
module Span = Dfm_obs.Span
module Export = Dfm_obs.Export
module Progress = Dfm_obs.Progress
module Recorder = Dfm_obs.Recorder
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Parallel = Dfm_util.Parallel

(* Every test here touches process-global observability state; restore the
   quiet defaults no matter how the body exits. *)
let with_clean_obs f =
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level Log.Warn;
      Span.set_enabled false;
      Span.reset ();
      Metrics.set_timing_enabled false;
      Metrics.set_attribution [];
      Recorder.set_enabled false;
      Progress.set_enabled false;
      Progress.set_mode Progress.Auto;
      Progress.set_output None)
    f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let slurp f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Log                                                                  *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  with_clean_obs @@ fun () ->
  let got = ref [] in
  Log.set_sink (Some (fun r -> got := r :: !got));
  Log.set_level Log.Info;
  Alcotest.(check bool) "info passes" true (Log.would_log Log.Info);
  Alcotest.(check bool) "debug filtered" false (Log.would_log Log.Debug);
  Log.debug "dropped";
  Log.info ~attrs:[ ("k", "v") ] "kept";
  Log.warn "warned";
  (match !got with
  | [ w; i ] ->
      Alcotest.(check string) "warn msg" "warned" w.Log.message;
      Alcotest.(check string) "info msg" "kept" i.Log.message;
      Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ] i.Log.attrs
  | l -> Alcotest.failf "expected 2 records, got %d" (List.length l));
  Log.set_sink None;
  Alcotest.(check bool) "no sink: nothing would log" false (Log.would_log Log.Error)

(* [logf] renders its format only when the record would reach the sink;
   observe that through sink delivery counts. *)
let test_logf_lazy () =
  with_clean_obs @@ fun () ->
  Log.set_level Log.Warn;
  let n = ref 0 in
  Log.set_sink (Some (fun _ -> incr n));
  Log.logf Log.Debug "%d" 42;
  Alcotest.(check int) "debug logf below level reaches no sink" 0 !n;
  Log.logf Log.Error "%d" 42;
  Alcotest.(check int) "error logf delivered" 1 !n

let test_level_of_string () =
  let open Log in
  Alcotest.(check bool) "error" true (level_of_string "ERROR" = Some Error);
  Alcotest.(check bool) "warning" true (level_of_string "warning" = Some Warn);
  Alcotest.(check bool) "info" true (level_of_string "Info" = Some Info);
  Alcotest.(check bool) "debug" true (level_of_string "debug" = Some Debug);
  Alcotest.(check bool) "garbage" true (level_of_string "loud" = None)

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter_gauge () =
  let c = Metrics.counter ~help:"test counter" "dfm_test_obs_counter_total" in
  let before = Metrics.counter_value c in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter adds" (before + 5) (Metrics.counter_value c);
  (* re-registering the same name returns the same cell *)
  let c' = Metrics.counter "dfm_test_obs_counter_total" in
  Metrics.incr c';
  Alcotest.(check int) "same handle" (before + 6) (Metrics.counter_value c);
  let g = Metrics.gauge "dfm_test_obs_gauge" in
  Metrics.set g 7;
  Metrics.add g (-2);
  Alcotest.(check int) "gauge" 5 (Metrics.gauge_value g);
  (* a name registered as a counter cannot come back as a gauge *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Dfm_obs.Metrics.gauge: dfm_test_obs_counter_total registered with another kind")
    (fun () -> ignore (Metrics.gauge "dfm_test_obs_counter_total"))

let test_metrics_histogram () =
  let h = Metrics.histogram "dfm_test_obs_hist_ns" in
  Metrics.observe h 1;   (* le 1 *)
  Metrics.observe h 3;   (* le 4 *)
  Metrics.observe h 4;   (* le 4 *)
  Metrics.observe h (-5) (* clamped to 0, le 1 *);
  match Metrics.find_value "dfm_test_obs_hist_ns" with
  | Some (Metrics.Histogram { buckets; sum; count }) ->
      Alcotest.(check int) "count" 4 count;
      Alcotest.(check int) "sum" 8 sum;
      let le v =
        let n = ref 0 in
        Array.iter (fun (b, c) -> if b <= v +. 0.5 then n := max !n c) buckets;
        !n
      in
      Alcotest.(check int) "le 1 cumulative" 2 (le 1.0);
      Alcotest.(check int) "le 2 cumulative" 2 (le 2.0);
      Alcotest.(check int) "le 4 cumulative" 4 (le 4.0);
      let last, c_inf = buckets.(Array.length buckets - 1) in
      Alcotest.(check bool) "+Inf last" true (last = infinity);
      Alcotest.(check int) "+Inf holds all" 4 c_inf;
      (* cumulative counts never decrease across buckets *)
      let mono = ref true and prev = ref 0 in
      Array.iter
        (fun (_, c) ->
          if c < !prev then mono := false;
          prev := c)
        buckets;
      Alcotest.(check bool) "cumulative monotone" true !mono
  | _ -> Alcotest.fail "histogram not found in registry"

let test_metrics_snapshot_sorted () =
  ignore (Metrics.counter "dfm_test_obs_zzz_total");
  ignore (Metrics.counter "dfm_test_obs_aaa_total");
  let names = List.map (fun m -> m.Metrics.name) (Metrics.snapshot ()) in
  Alcotest.(check bool) "snapshot sorted by name" true
    (List.sort compare names = names);
  Alcotest.(check bool) "registry keeps families" true
    (List.mem "dfm_test_obs_aaa_total" names)

(* ------------------------------------------------------------------ *)
(* Span                                                                 *)
(* ------------------------------------------------------------------ *)

let test_span_disabled_is_free () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Span.set_enabled false;
  let r = Span.with_ "outer" (fun () -> Span.with_ "inner" (fun () -> 41 + 1)) in
  Alcotest.(check int) "value threaded" 42 r;
  Alcotest.(check (list string)) "no events recorded" []
    (List.map (fun (e : Span.event) -> e.Span.name) (Span.drain ()))

let test_span_nesting () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Span.set_enabled true;
  let r =
    Span.with_ ~attrs:[ ("a", "1") ] "outer" (fun () ->
        Span.note "noted" "yes";
        Span.with_ "inner" (fun () -> 7))
  in
  Alcotest.(check int) "value" 7 r;
  (* a span closed by an exception still records its event *)
  (try Span.with_ "raises" (fun () -> failwith "boom") with Failure _ -> ());
  let evs = Span.drain () in
  let by_name n = List.find (fun (e : Span.event) -> e.Span.name = n) evs in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let outer = by_name "outer" and inner = by_name "inner" and raises = by_name "raises" in
  Alcotest.(check int) "outer depth" 0 outer.Span.depth;
  Alcotest.(check int) "inner depth" 1 inner.Span.depth;
  Alcotest.(check int) "raises depth" 0 raises.Span.depth;
  Alcotest.(check bool) "inner within outer" true
    (inner.Span.begin_ns >= outer.Span.begin_ns && inner.Span.end_ns <= outer.Span.end_ns);
  Alcotest.(check bool) "durations non-negative" true
    (List.for_all (fun (e : Span.event) -> e.Span.end_ns >= e.Span.begin_ns) evs);
  Alcotest.(check bool) "note attached to outer" true
    (List.mem ("noted", "yes") outer.Span.attrs && List.mem ("a", "1") outer.Span.attrs);
  Alcotest.(check (list string)) "drain clears" []
    (List.map (fun (e : Span.event) -> e.Span.name) (Span.drain ()))

(* ------------------------------------------------------------------ *)
(* Exporters                                                            *)
(* ------------------------------------------------------------------ *)

let test_json_escape () =
  Alcotest.(check string) "quotes and backslash" "a\\\"b\\\\c" (Export.json_escape "a\"b\\c");
  Alcotest.(check string) "newline" "x\\ny" (Export.json_escape "x\ny");
  Alcotest.(check string) "control" "\\u0001" (Export.json_escape "\x01")

let count_occurrences needle haystack =
  let n = ref 0 and i = ref 0 in
  let ln = String.length needle in
  while !i + ln <= String.length haystack do
    if String.sub haystack !i ln = needle then (incr n; i := !i + ln) else incr i
  done;
  !n

let test_chrome_trace_shape () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Span.set_enabled true;
  Span.with_ "outer" (fun () ->
      Span.with_ ~attrs:[ ("cell", "NAND2X1") ] "inner" (fun () -> ()));
  let s = Export.chrome_trace_string (Span.drain ()) in
  Alcotest.(check bool) "traceEvents envelope" true
    (String.length s > 16 && String.sub s 0 16 = "{\"traceEvents\":[");
  Alcotest.(check int) "two begins" 2 (count_occurrences "\"ph\":\"B\"" s);
  Alcotest.(check int) "two ends" 2 (count_occurrences "\"ph\":\"E\"" s);
  Alcotest.(check bool) "args on begin" true (count_occurrences "\"cell\":\"NAND2X1\"" s = 1)

let test_prometheus_exposition () =
  ignore (Metrics.counter ~help:"say \"hi\"" "dfm_test_obs_prom_total");
  let s = Export.prometheus_string (Metrics.snapshot ()) in
  let lines = String.split_on_char '\n' s in
  (* one HELP and one TYPE per family, and no duplicate sample series *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" then begin
        let key =
          if String.length line > 0 && line.[0] = '#' then line
          else
            match String.index_opt line ' ' with
            | Some i -> String.sub line 0 i
            | None -> line
        in
        Alcotest.(check bool) (Printf.sprintf "duplicate series: %s" key) false
          (Hashtbl.mem seen key);
        Hashtbl.add seen key ()
      end)
    lines;
  Alcotest.(check int) "one TYPE for the family" 1
    (count_occurrences "# TYPE dfm_test_obs_prom_total counter" s);
  (* every histogram ends its buckets at +Inf *)
  Alcotest.(check bool) "histograms expose +Inf" true
    (count_occurrences "le=\"+Inf\"" s >= 1 || count_occurrences "_bucket" s = 0)

(* ------------------------------------------------------------------ *)
(* Result transparency: the subsystem's hard invariant                  *)
(* ------------------------------------------------------------------ *)

let transparency_design =
  lazy
    (let nl = Dfm_circuits.Circuits.build ~scale:0.25 "sparc_ffu" in
     Design.implement nl)

let run_campaign ~seed ~q_max d0 = Resynth.run ~seed ~q_max d0

let check_same_result label (a : Resynth.result) (b : Resynth.result) =
  let ok name v = if not v then Alcotest.failf "%s: %s differs" label name in
  ok "final netlist"
    (Dfm_netlist.Netlist_io.to_string a.Resynth.final.Design.netlist
    = Dfm_netlist.Netlist_io.to_string b.Resynth.final.Design.netlist);
  ok "trace" (a.Resynth.trace = b.Resynth.trace);
  ok "accepted" (a.Resynth.accepted = b.Resynth.accepted);
  ok "effort" (a.Resynth.effort = b.Resynth.effort)

(* Why each candidate was accepted or rejected, read from the spans alone:
   every candidate span carries one outcome, the accepting outcomes add up
   to the campaign's accepted steps, each outcome's counter moved by the
   number of its spans, and the remap and internal-check spans of
   [Resynth.evaluate] nest inside a candidate span.  A candidate answered
   from the campaign's memo ([memo=hit]) did no remap, internal check or
   implement, unless it accepted: an accept rebuilds its design. *)
let candidate_outcomes =
  [ "accept"; "backtrack-accept"; "reject"; "worse"; "no_fit"; "over_budget"; "unmappable" ]

(* The process totals of [dfm_resynth_candidates_total], per outcome. *)
let candidate_counts () =
  List.map
    (fun o ->
      match Metrics.find_value ~labels:[ ("outcome", o) ] "dfm_resynth_candidates_total" with
      | Some (Metrics.Counter n) -> n
      | _ -> Alcotest.failf "dfm_resynth_candidates_total{outcome=%S} is not registered" o)
    candidate_outcomes

let inside (e : Span.event) (c : Span.event) =
  c.Span.tid = e.Span.tid && c.Span.begin_seq < e.Span.begin_seq
  && e.Span.end_seq < c.Span.end_seq

let check_candidate_spans label (r : Resynth.result) ~counted spans =
  let named n = List.filter (fun (e : Span.event) -> e.Span.name = n) spans in
  let candidates = named "candidate" in
  let outcomes =
    List.map
      (fun (c : Span.event) ->
        match List.assoc_opt "outcome" c.Span.attrs with
        | Some o when List.mem o candidate_outcomes -> o
        | Some o -> Alcotest.failf "%s: unknown candidate outcome %S" label o
        | None -> Alcotest.failf "%s: candidate span without an outcome" label)
      candidates
  in
  let accepting =
    List.length (List.filter (fun o -> o = "accept" || o = "backtrack-accept") outcomes)
  in
  if accepting <> r.Resynth.accepted then
    Alcotest.failf "%s: %d accepting outcomes for %d accepted steps" label accepting
      r.Resynth.accepted;
  List.iter2
    (fun o n ->
      let spans = List.length (List.filter (( = ) o) outcomes) in
      if n <> spans then
        Alcotest.failf "%s: outcome %s counted %d times for %d spans" label o n spans)
    candidate_outcomes counted;
  List.iter
    (fun (e : Span.event) ->
      if not (List.exists (inside e) candidates) then
        Alcotest.failf "%s: %s span outside every candidate span" label e.Span.name)
    (named "remap" @ named "internal_check");
  let work = named "remap" @ named "internal_check" @ named "implement" in
  List.iter2
    (fun (c : Span.event) o ->
      if List.assoc_opt "memo" c.Span.attrs = Some "hit" && o <> "accept" && o <> "backtrack-accept"
      then
        match List.find_opt (fun e -> inside e c) work with
        | Some e -> Alcotest.failf "%s: a memo hit (%s) holds a %s span" label o e.Span.name
        | None -> ())
    candidates outcomes

(* [Design.implement] opens one span per layer: a campaign opens exactly
   one implement span per counted implement call, the spans only implement
   opens never appear outside an implement span, and every implement span
   holds each layer that always runs exactly once.  [Atpg] opens
   atpg.classify itself, inside implement and out. *)
let implement_only =
  [ "layout.place"; "layout.route"; "timing.sta"; "timing.power"; "dfm.translate";
    "core.cluster" ]

let implement_layers = "atpg.classify" :: implement_only

let check_implement_spans label (r : Resynth.result) spans =
  let named n = List.filter (fun (e : Span.event) -> e.Span.name = n) spans in
  let implements = named "implement" in
  if List.length implements <> r.Resynth.effort.Resynth.implement_calls then
    Alcotest.failf "%s: %d implement spans for %d implement calls" label
      (List.length implements) r.Resynth.effort.Resynth.implement_calls;
  List.iter
    (fun (e : Span.event) ->
      if not (List.exists (inside e) implements) then
        Alcotest.failf "%s: %s span outside every implement span" label e.Span.name)
    (List.concat_map named implement_only);
  List.iter
    (fun impl ->
      List.iter
        (fun layer ->
          match List.filter (fun e -> inside e impl) (named layer) with
          | [ _ ] -> ()
          | l -> Alcotest.failf "%s: an implement span holds %d %s spans" label (List.length l) layer)
        implement_layers)
    implements

(* A remap opens one span per Synthesize() step.  A remap that produced a
   netlist holds each exactly once; one the mapper refused ends in its
   synth.map span. *)
let synth_steps =
  [ "synth.extract"; "synth.to_aig"; "synth.sweep"; "synth.map"; "synth.replace";
    "synth.canonical" ]

let check_remap_spans label spans =
  let named n = List.filter (fun (e : Span.event) -> e.Span.name = n) spans in
  let produced =
    List.fold_left
      (fun produced remap ->
        let held step = List.length (List.filter (fun e -> inside e remap) (named step)) in
        match List.map held synth_steps with
        | [ 1; 1; 1; 1; 1; 1 ] -> produced + 1
        | [ 1; 1; 1; 1; 0; 0 ] -> produced
        | held ->
            Alcotest.failf "%s: a remap span holds [%s] of the steps [%s]" label
              (String.concat "; " (List.map string_of_int held))
              (String.concat "; " synth_steps))
      0 (named "remap")
  in
  if produced = 0 then Alcotest.failf "%s: no remap span produced a netlist" label

(* The process total of [dfm_atpg_faults_carried_total]. *)
let carried_total () =
  match Metrics.find_value "dfm_atpg_faults_carried_total" with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.fail "dfm_atpg_faults_carried_total is not a registered counter"

(* Every atpg.classify span notes how many verdicts it was handed, and the
   counter moved by their sum. *)
let check_carried_spans label ~counted spans =
  let noted =
    List.fold_left
      (fun acc (e : Span.event) ->
        if e.Span.name <> "atpg.classify" then acc
        else
          match List.assoc_opt "carried" e.Span.attrs with
          | Some n -> acc + int_of_string n
          | None -> Alcotest.failf "%s: an atpg.classify span without a carried note" label)
      0 spans
  in
  if noted <> counted then
    Alcotest.failf "%s: the spans note %d carried verdicts, the counter moved by %d" label noted
      counted

(* The process totals of simulation-kernel gate evaluations and pool
   tasks. *)
let kernel_and_pool () =
  let counter name =
    match Metrics.find_value name with
    | Some (Metrics.Counter n) -> n
    | _ -> Alcotest.failf "%s is not a registered counter" name
  in
  (counter "dfm_sim_gate_evals_total", counter "dfm_pool_tasks_total")

let prop_transparency =
  QCheck.Test.make
    ~name:"campaign bit-identical with observability on/off and at jobs 1 and 4" ~count:2
    QCheck.(pair (Arb.int_range 1 10_000) (Arb.int_range 1 2))
    (fun (seed, q_max) ->
      let d0 = Lazy.force transparency_design in
      let saved_jobs = Parallel.default_jobs () in
      Fun.protect ~finally:(fun () -> Parallel.set_default_jobs saved_jobs)
      @@ fun () ->
      with_clean_obs @@ fun () ->
      (* One job count: the campaign with everything off, checked against the
         same campaign with everything on. *)
      let run_at jobs =
        Parallel.set_default_jobs jobs;
        (* everything off: the reference *)
        Log.set_sink None;
        Span.set_enabled false;
        Span.reset ();
        Metrics.set_timing_enabled false;
        Progress.set_enabled false;
        let k0 = kernel_and_pool () in
        let off = run_campaign ~seed ~q_max d0 in
        let k1 = kernel_and_pool () in
        (* everything on: sinks capture into buffers we then discard *)
        let sunk = ref 0 and drawn = ref 0 in
        Log.set_sink (Some (fun _ -> incr sunk));
        Log.set_level Log.Debug;
        Span.set_enabled true;
        Metrics.set_timing_enabled true;
        Metrics.set_attribution [ ("tenant", "qa"); ("job", "J0") ];
        Recorder.set_enabled true;
        Progress.set_output (Some (fun _ -> incr drawn));
        Progress.set_enabled true;
        let c0 = candidate_counts () and carried0 = carried_total () in
        let on = run_campaign ~seed ~q_max d0 in
        let counted = List.map2 (fun a b -> b - a) c0 (candidate_counts ()) in
        let carried = carried_total () - carried0 in
        Metrics.set_attribution [];
        Recorder.set_enabled false;
        let spans = Span.drain () in
        check_same_result (Printf.sprintf "jobs=%d" jobs) off on;
        check_candidate_spans (Printf.sprintf "jobs=%d" jobs) on ~counted spans;
        check_implement_spans (Printf.sprintf "jobs=%d" jobs) on spans;
        check_remap_spans (Printf.sprintf "jobs=%d" jobs) spans;
        check_carried_spans (Printf.sprintf "jobs=%d" jobs) ~counted:carried spans;
        (* the instrumented run must actually have observed something,
           otherwise this property is vacuous.  (Log records only appear
           on accepted steps, so [sunk] may legitimately stay 0 on a
           no-accept campaign — the sink is installed to exercise the
           delivery path, not asserted on.) *)
        ignore !sunk;
        if spans = [] then Alcotest.failf "jobs=%d: no spans recorded" jobs;
        (off, (fst k1 - fst k0, snd k1 - snd k0))
      in
      let j1, k1 = run_at 1 in
      let j4, k4 = run_at 4 in
      (* the job count changes nothing either, effort counts included, nor
         the simulation kernel's work or the pool tasks submitted *)
      check_same_result "jobs=1 vs jobs=4" j1 j4;
      if fst k1 <> fst k4 then
        Alcotest.failf "jobs=1 vs jobs=4: %d vs %d gate evaluations" (fst k1) (fst k4);
      if snd k1 <> snd k4 then
        Alcotest.failf "jobs=1 vs jobs=4: %d vs %d pool tasks" (snd k1) (snd k4);
      true)

(* The transparency campaign carries its parent's verdicts into the
   classifications of its candidates.  Certified, it proves each remapped
   region equal to its remap and carries the same verdicts, so it ends in
   the same design, trace and effort. *)
let test_certified_carries_like_plain () =
  let d0 = Lazy.force transparency_design in
  with_clean_obs @@ fun () ->
  Span.set_enabled true;
  Span.reset ();
  let run ~certify =
    let before = carried_total () in
    let r = Resynth.run ~certify d0 in
    let counted = carried_total () - before in
    check_carried_spans (Printf.sprintf "certify=%b" certify) ~counted (Span.drain ());
    (r, counted)
  in
  let plain, carried = run ~certify:false in
  if carried = 0 then Alcotest.fail "the campaign carried no verdict";
  let certified, carried_certified = run ~certify:true in
  Alcotest.(check int) "verdicts carried under certify" carried carried_certified;
  check_same_result "certified vs plain" plain certified;
  if certified.Resynth.certified_checks = 0 then Alcotest.fail "nothing was certified";
  Alcotest.(check int) "certificate failures" 0 certified.Resynth.certified_failures

(* ------------------------------------------------------------------ *)
(* Labels and ambient attribution                                       *)
(* ------------------------------------------------------------------ *)

let test_metrics_label_validation () =
  Alcotest.check_raises "invalid label name"
    (Invalid_argument "Dfm_obs.Metrics: dfm_test_obs_lbl_total: invalid label name \"bad-name\"")
    (fun () -> ignore (Metrics.counter ~labels:[ ("bad-name", "v") ] "dfm_test_obs_lbl_total"));
  Alcotest.check_raises "duplicate label key"
    (Invalid_argument
       "Dfm_obs.Metrics: dfm_test_obs_lbl_total: duplicate label key \"tenant\" in one label \
        set")
    (fun () ->
      ignore (Metrics.counter ~labels:[ ("tenant", "a"); ("tenant", "b") ] "dfm_test_obs_lbl_total"));
  (* the same label set in any order is one series, not a duplicate *)
  let a = Metrics.counter ~labels:[ ("tenant", "a"); ("job", "J1") ] "dfm_test_obs_lbl_total" in
  let a' = Metrics.counter ~labels:[ ("job", "J1"); ("tenant", "a") ] "dfm_test_obs_lbl_total" in
  Metrics.incr a;
  Metrics.incr a';
  Alcotest.(check int) "one shared series" 2 (Metrics.counter_value a)

let test_attributed_counters () =
  with_clean_obs @@ fun () ->
  let a = Metrics.attributed_counter ~help:"attribution test" "dfm_test_obs_attr_total" in
  Metrics.incr_attr a;
  Alcotest.(check int) "base bumps without context" 1 (Metrics.counter_value (Metrics.attr_base a));
  Metrics.set_attribution [ ("tenant", "acme"); ("job", "J7") ];
  Metrics.incr_attr ~by:2 a;
  Metrics.incr_attr a;
  Metrics.set_attribution [];
  Metrics.incr_attr a;
  Alcotest.(check int) "base counts every bump" 5 (Metrics.counter_value (Metrics.attr_base a));
  (match Metrics.find_value ~labels:[ ("job", "J7"); ("tenant", "acme") ] "dfm_test_obs_attr_total" with
  | Some (Metrics.Counter n) -> Alcotest.(check int) "labeled series counts attributed bumps" 3 n
  | _ -> Alcotest.fail "attributed label series not registered");
  Alcotest.check_raises "attribution labels are validated"
    (Invalid_argument "Dfm_obs.Metrics: set_attribution: invalid label name \"bad-name\"")
    (fun () -> Metrics.set_attribution [ ("bad-name", "x") ])

(* ------------------------------------------------------------------ *)
(* Escaping: property-tested against hand-rolled validators            *)
(* ------------------------------------------------------------------ *)

(* Validator-side JSON string reader: rejects raw control bytes, raw
   quotes, and any escape the exporter has no business emitting; returns
   the decoded string otherwise. *)
let json_unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '"' -> None
      | c when Char.code c < 0x20 -> None
      | '\\' ->
          if i + 1 >= n then None
          else (
            match s.[i + 1] with
            | '"' ->
                Buffer.add_char buf '"';
                go (i + 2)
            | '\\' ->
                Buffer.add_char buf '\\';
                go (i + 2)
            | 'n' ->
                Buffer.add_char buf '\n';
                go (i + 2)
            | 'r' ->
                Buffer.add_char buf '\r';
                go (i + 2)
            | 't' ->
                Buffer.add_char buf '\t';
                go (i + 2)
            | 'u' ->
                if i + 6 > n then None
                else (
                  match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                  | Some code when code < 0x20 ->
                      Buffer.add_char buf (Char.chr code);
                      go (i + 6)
                  | _ -> None)
            | _ -> None)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

let prop_json_escape =
  QCheck.Test.make ~name:"json_escape valid+invertible on arbitrary bytes" ~count:500
    QCheck.string (fun s ->
      match json_unescape (Export.json_escape s) with
      | Some s' -> String.equal s s'
      | None -> false)

(* Prometheus label values: no raw newline, no raw quote, every backslash
   starts one of the three escapes the exposition format defines. *)
let prom_unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '\n' | '"' -> None
      | '\\' ->
          if i + 1 >= n then None
          else (
            match s.[i + 1] with
            | '\\' ->
                Buffer.add_char buf '\\';
                go (i + 2)
            | '"' ->
                Buffer.add_char buf '"';
                go (i + 2)
            | 'n' ->
                Buffer.add_char buf '\n';
                go (i + 2)
            | _ -> None)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0

let prop_prom_label_escape =
  QCheck.Test.make ~name:"prom_label_escape valid+invertible on arbitrary bytes" ~count:500
    QCheck.string (fun s ->
      match prom_unescape (Export.prom_label_escape s) with
      | Some s' -> String.equal s s'
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Streaming: concurrent domains, lossless fresh-only drain             *)
(* ------------------------------------------------------------------ *)

(* The serve daemon streams spans to telemetry subscribers by calling
   [Span.drain] concurrently with the recording domains: every span must
   be returned by exactly one drain. *)
let prop_stream_concurrent =
  QCheck.Test.make ~name:"Span.drain under concurrent domains"
    ~count:4
    (Arb.int_range 2 4)
    (fun doms ->
      with_clean_obs @@ fun () ->
      Span.reset ();
      Span.set_enabled true;
      let per = 50 in
      let workers =
        List.init doms (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per do
                  Span.with_ (Printf.sprintf "stream.%d.%d" d i) Fun.id
                done))
      in
      (* drain concurrently with the recording domains *)
      let fresh = ref [] in
      let deadline = Unix.gettimeofday () +. 20. in
      while List.length !fresh < doms * per && Unix.gettimeofday () < deadline do
        fresh := Span.drain () @ !fresh
      done;
      List.iter Domain.join workers;
      fresh := Span.drain () @ !fresh;
      let names =
        List.sort compare (List.map (fun (e : Span.event) -> e.Span.name) !fresh)
      in
      if List.length names <> doms * per then
        QCheck.Test.fail_reportf "lost events: drained %d of %d" (List.length names)
          (doms * per);
      let rec dup = function
        | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
        | _ -> None
      in
      match dup names with
      | Some n -> QCheck.Test.fail_reportf "duplicated event %s" n
      | None -> true)

(* A long-lived stream must not keep what it has handed out: 200k spans
   drained in batches of 1k, the daemon's telemetry pattern, leave the live
   heap where it was.  A drain that retained every span would hold about
   12 words per span, 2.5M words here. *)
let test_stream_drain_keeps_nothing () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Span.set_enabled true;
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let drained = ref 0 in
  for _ = 1 to 200 do
    for _ = 1 to 1000 do
      Span.with_ "stream.leak" Fun.id
    done;
    drained := !drained + List.length (Span.drain ())
  done;
  let grown = live () - before in
  Alcotest.(check int) "every span drained" 200_000 !drained;
  if grown >= 100_000 then
    Alcotest.failf "live heap grew by %d words over 200k streamed spans" grown

(* Every [Parallel.run] batch spawns fresh domains, and a domain that
   exits hands its span state (buffers, ring, tid) to the next one.  Each
   task waits for the other to start, so every batch records on two
   domains; fifty batches still leave at most two tids, where one state
   per spawned domain would leave 51. *)
let test_span_states_recycled () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Span.set_enabled true;
  for _ = 1 to 50 do
    let started = Atomic.make 0 in
    let task () =
      Atomic.incr started;
      while Atomic.get started < 2 do
        Domain.cpu_relax ()
      done;
      Span.with_ "recycle.task" Fun.id
    in
    Parallel.run ~jobs:2 [| task; task |]
  done;
  let tids =
    List.sort_uniq compare
      (List.filter_map
         (fun (e : Span.event) -> if e.Span.name = "recycle.task" then Some e.Span.tid else None)
         (Span.drain ()))
  in
  if List.length tids > 2 then
    Alcotest.failf "%d distinct tids over 50 two-domain batches" (List.length tids)

(* ------------------------------------------------------------------ *)
(* Progress modes                                                       *)
(* ------------------------------------------------------------------ *)

let capture_stderr f =
  let file = Filename.temp_file "dfm_prog" ".err" in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let s = slurp file in
  Sys.remove file;
  s

let test_progress_modes () =
  with_clean_obs @@ fun () ->
  Progress.set_enabled true;
  (* Auto off a terminal: silence, not \r-garbage in logs and CI *)
  let auto_out = capture_stderr (fun () -> Progress.force (fun () -> "auto line")) in
  Alcotest.(check string) "auto mode emits nothing off-tty" "" auto_out;
  Progress.set_mode Progress.Plain;
  let plain_out = capture_stderr (fun () -> Progress.force (fun () -> "plain line")) in
  Alcotest.(check string) "plain mode emits one line per update" "plain line\n" plain_out;
  Progress.finish ();
  let fin = capture_stderr Progress.finish in
  Alcotest.(check string) "finish is silent unless a tty line is pending" "" fin

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                      *)
(* ------------------------------------------------------------------ *)

let test_flight_recorder () =
  with_clean_obs @@ fun () ->
  Span.reset ();
  Recorder.set_enabled true;
  Log.set_level Log.Info;
  Log.info "recorder retains me";
  (try
     Span.with_ "flight.outer" (fun () ->
         Span.with_ "flight.inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Span.with_ "flight.after" Fun.id;
  (* the ring retained the spans even though span export is off *)
  Alcotest.(check bool) "span export stays off" true (Span.drain () = []);
  let recent = Span.recent () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " in ring") true
        (List.exists (fun (e : Span.event) -> e.Span.name = n) recent))
    [ "flight.outer"; "flight.inner"; "flight.after" ];
  let failures = Span.last_failures () in
  Alcotest.(check bool) "failure stack captured innermost-first" true
    (List.exists
       (fun (_, stack) ->
         List.exists (fun (oi : Span.open_info) -> oi.Span.oi_name = "flight.inner") stack
         && List.exists (fun (oi : Span.open_info) -> oi.Span.oi_name = "flight.outer") stack)
       failures);
  let dir = Filename.temp_file "dfm_flight" "" in
  Sys.remove dir;
  match Recorder.dump ~dir ~reason:"unit test" with
  | Error e -> Alcotest.failf "dump failed: %s" e
  | Ok (trace, text) ->
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ trace; text ];
          try Sys.rmdir dir with Sys_error _ -> ())
        (fun () ->
          let t = slurp text in
          Alcotest.(check bool) "post-mortem names the reason" true (contains t "unit test");
          Alcotest.(check bool) "post-mortem shows the failing span stack" true
            (contains t "flight.inner");
          Alcotest.(check bool) "post-mortem retains the log line" true
            (contains t "recorder retains me");
          let tr = slurp trace in
          Alcotest.(check bool) "trace dump uses complete events" true
            (contains tr "\"ph\":\"X\"");
          Alcotest.(check bool) "trace dump is a Chrome trace" true
            (contains tr "{\"traceEvents\":["))

let suite =
  [
    Alcotest.test_case "log levels, sink, would_log" `Quick test_log_levels;
    Alcotest.test_case "logf renders only above level" `Quick test_logf_lazy;
    Alcotest.test_case "level_of_string" `Quick test_level_of_string;
    Alcotest.test_case "metrics counters and gauges" `Quick test_metrics_counter_gauge;
    Alcotest.test_case "metrics log2 histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics snapshot sorted, families persist" `Quick
      test_metrics_snapshot_sorted;
    Alcotest.test_case "spans disabled are free" `Quick test_span_disabled_is_free;
    Alcotest.test_case "span nesting, notes, exception safety" `Quick test_span_nesting;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "chrome trace B/E shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "prometheus exposition is duplicate-free" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "label validation and canonical series" `Quick
      test_metrics_label_validation;
    Alcotest.test_case "attributed counters follow the ambient context" `Quick
      test_attributed_counters;
    Alcotest.test_case "progress modes off-tty" `Quick test_progress_modes;
    Alcotest.test_case "flight recorder ring, failure stacks, dump" `Quick
      test_flight_recorder;
    QCheck_alcotest.to_alcotest prop_json_escape;
    QCheck_alcotest.to_alcotest prop_prom_label_escape;
    QCheck_alcotest.to_alcotest prop_stream_concurrent;
    Alcotest.test_case "streaming 200k spans keeps no history" `Quick
      test_stream_drain_keeps_nothing;
    Alcotest.test_case "span states recycled" `Quick test_span_states_recycled;
    QCheck_alcotest.to_alcotest prop_transparency;
    Alcotest.test_case "a certified campaign carries what the plain one carries" `Slow
      test_certified_carries_like_plain;
  ]
