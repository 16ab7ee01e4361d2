(* The repository benchmark: one workload per process, timed from outside
   through the public entry points (Design.implement, Resynth.run and the
   serve Client).  See README.md for the workloads and the metric map.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --regen      # print the oracle table (expected.txt)

   The last line of stdout is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0 (tracing off), the
   per-layer metrics with --trace 1.  The line before it stamps the run
   (OCaml version, domains, jobs, warm-up, sample count). *)

module N = Dfm_netlist.Netlist
module Netlist_io = Dfm_netlist.Netlist_io
module Atpg = Dfm_atpg.Atpg
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Cluster = Dfm_core.Cluster
module Circuits = Dfm_circuits.Circuits
module Translate = Dfm_guidelines.Translate
module Span = Dfm_obs.Span
module Metrics = Dfm_obs.Metrics
module Cert = Dfm_sat.Cert
module P = Dfm_serve.Protocol
module Client = Dfm_serve.Client
module Daemon = Dfm_serve.Daemon

let now = Unix.gettimeofday

(* Every workload pins one worker: at jobs=2 a 4 s implement of aes_core
   spread from 2.1 to 3.0 s on a 2-core host. *)
let jobs = 1

(* Design.implement's default seed; the layer replay must use the same. *)
let impl_seed = 3

(* Resynth.run's default q_max: delay and power may grow by at most 5%. *)
let q_max = 5

let expected_file = "perfbench/expected.txt"

(* ---- statistics ------------------------------------------------------ *)

let percentile xs p =
  match Array.of_list (List.sort compare xs) with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let r = p *. float_of_int (n - 1) in
      let i = int_of_float r in
      if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let shuffle rng l =
  let a = Array.of_list l in
  Dfm_util.Rng.shuffle rng a;
  Array.to_list a

(* ---- the oracle ------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One operation checked: counted in [attempted], and in [failed] when
   any of its errors is present. *)
let check_mutex = Mutex.create ()

let check what errors =
  Mutex.protect check_mutex @@ fun () ->
  incr attempted;
  if errors <> [] then begin
    incr failed;
    List.iter (fun e -> Printf.eprintf "perfbench: %s: %s\n%!" what e) errors
  end

let expect what want got =
  if want = got then [] else [ Printf.sprintf "%s: expected %d, got %d" what want got ]

type facts = { f : int; u : int; u_in : int; u_ex : int; smax : int; queries : int }

type campaign = { u0 : int; smax0 : int; u1 : int; smax1 : int; accepted : int }

let key name scale = Printf.sprintf "%s@%g" name scale

let facts_of (d : Design.t) =
  let m = Design.metrics d in
  {
    f = m.Design.f;
    u = m.Design.u;
    u_in = m.Design.u_internal;
    u_ex = m.Design.u_external;
    smax = m.Design.s_max;
    queries = d.Design.classification.Atpg.counts.Atpg.sat_queries;
  }

(* [queries] is skipped for daemon jobs: their verdict store turns SAT
   queries into hits. *)
let facts_errors ?(queries = true) (e : facts) (g : facts) =
  List.concat
    [
      expect "F" e.f g.f;
      expect "U" e.u g.u;
      expect "U_in" e.u_in g.u_in;
      expect "U_ex" e.u_ex g.u_ex;
      expect "Smax" e.smax g.smax;
      (if queries then expect "sat_queries" e.queries g.queries else []);
    ]

let expected =
  lazy
    (let analyze = Hashtbl.create 64 and resynth = Hashtbl.create 4 in
     let ic =
       try open_in expected_file
       with Sys_error e ->
         prerr_endline ("perfbench: cannot read the oracle table: " ^ e);
         exit 2
     in
     let i = int_of_string and fl = float_of_string in
     (try
        while true do
          match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
          | [] -> ()
          | w :: _ when w.[0] = '#' -> ()
          | [ ("analyze" | "served") as kind; n; s; f; u; u_in; u_ex; smax; q ] ->
              Hashtbl.replace analyze (kind, key n (fl s))
                { f = i f; u = i u; u_in = i u_in; u_ex = i u_ex; smax = i smax; queries = i q }
          | [ "resynth"; n; s; u0; smax0; u1; smax1; acc ] ->
              Hashtbl.replace resynth (key n (fl s))
                { u0 = i u0; smax0 = i smax0; u1 = i u1; smax1 = i smax1; accepted = i acc }
          | _ -> failwith ("malformed line in " ^ expected_file)
        done
      with End_of_file -> close_in ic);
     (analyze, resynth))

(* [served] entries are for netlists that went through the netlist text
   format, as every daemon job does; the round trip can rename nets and so
   move the layout. *)
let expected_facts ?(served = false) name scale =
  let kind = if served then "served" else "analyze" in
  match Hashtbl.find_opt (fst (Lazy.force expected)) (kind, key name scale) with
  | Some e -> e
  | None -> failwith (Printf.sprintf "no oracle entry for %s %s" kind (key name scale))

let expected_campaign name scale =
  match Hashtbl.find_opt (snd (Lazy.force expected)) (key name scale) with
  | Some e -> e
  | None -> failwith ("no oracle entry for resynth " ^ key name scale)

(* Equivalence verdicts memoized by netlist text: a campaign is
   deterministic, so later rounds re-produce byte-identical netlists and
   the SAT proof need not be repeated for them. *)
let equiv_memo : (Digest.t, bool) Hashtbl.t = Hashtbl.create 8

let equivalent a b =
  let k = Digest.string (Netlist_io.to_string a ^ "\000" ^ Netlist_io.to_string b) in
  match Hashtbl.find_opt equiv_memo k with
  | Some v -> v
  | None ->
      let v = Dfm_atpg.Equiv_sat.check ~counted:false a b = Dfm_atpg.Equiv_sat.Equivalent in
      Hashtbl.replace equiv_memo k v;
      v

(* The paper's Section III constraints on a finished campaign, plus the
   committed accept chain outcome. *)
let campaign_errors (e : campaign) (r : Resynth.result) =
  let d0 = r.Resynth.initial and d1 = r.Resynth.final in
  let m0 = Design.metrics d0 and m1 = Design.metrics d1 in
  let within what a b =
    if a <= b *. (1.0 +. (float_of_int q_max /. 100.0)) then []
    else [ Printf.sprintf "%s %.4f exceeds %d%% over %.4f" what a q_max b ]
  in
  let fp0 = d0.Design.floorplan in
  List.concat
    [
      expect "U0" e.u0 m0.Design.u;
      expect "Smax0" e.smax0 m0.Design.s_max;
      expect "U1" e.u1 m1.Design.u;
      expect "Smax1" e.smax1 m1.Design.s_max;
      expect "accepted" e.accepted r.Resynth.accepted;
      (if m1.Design.u > m0.Design.u then [ "U rose" ] else []);
      within "delay" m1.Design.delay m0.Design.delay;
      within "power" m1.Design.power m0.Design.power;
      (if d1.Design.floorplan = fp0
          && Dfm_layout.Floorplan.fits fp0 ~cell_area:(N.total_area d1.Design.netlist)
       then []
       else [ "final design does not fit the original floorplan" ]);
      (match Dfm_layout.Place.check_legal d1.Design.placement with
      | () -> []
      | exception e -> [ "illegal placement: " ^ Printexc.to_string e ]);
      (if equivalent d0.Design.netlist d1.Design.netlist then []
       else [ "Equiv_sat did not prove equivalence" ]);
    ]

(* ---- output ---------------------------------------------------------- *)

(* The host is shared: a fixed loop timed back to back on it varied by 2x,
   and the median of a run moved by 15-25% from run to run with the
   neighbours' load.  So every reported time is scaled to a reference host
   speed.  Between operations the benchmark times [calibrate], a fixed
   hashing loop of its own that no change to the program can touch, and
   multiplies each time by [cal_ref_s] over the run's mean calibration
   time; on a 2-core host without neighbours the factor is about 1.  The
   stamp carries the factor and the unscaled values. *)
let cal_ref_s = 0.025
let cal_samples = ref []

let calibrate () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  let x = ref 12345 in
  for i = 0 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!x land 0xffff) [ i; !x ]
  done;
  cal_samples := (now () -. t0) :: !cal_samples

(* Before every timed operation: a host-speed sample taken on a compacted
   heap (so it does not pay for the program's garbage), then a compacted
   heap again, so the operation's cost does not depend on what the
   seed-shuffled order ran before it. *)
let prepare () =
  Gc.compact ();
  calibrate ();
  Gc.compact ()

let host_factor () =
  match !cal_samples with
  | [] -> 1.0
  | l -> cal_ref_s /. (sum l /. float_of_int (List.length l))

let scaled factor unit v =
  match unit with "s" | "ms" | "ns" -> v *. factor | "1/s" -> v /. factor | _ -> v

let out : (string * float * string) list ref = ref []
let metric name unit v = out := (name, v, unit) :: !out

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics f =
  List.rev !out
  |> List.map (fun (n, v, u) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number (f u v)) u)
  |> String.concat ", "

(* The stamp line, then the result line. *)
let print_result stamp =
  let factor = host_factor () in
  Printf.printf "{\"stamp\": {%s, \"host_factor\": %s, \"calibrations\": %d, \"unscaled\": {%s}}}\n"
    stamp (json_number factor) (List.length !cal_samples) (json_metrics (fun _ v -> v));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed (json_metrics (scaled factor))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* How many samples the latency percentiles (untraced) or the per-layer
   medians (traced) rest on; stated in the stamp. *)
let samples = ref 0

(* Metrics every workload reports, tracing off. *)
let end_to_end ~setup_s ~analyze_s ~latencies ~busy_s ~u ~smax =
  samples := List.length latencies;
  metric "setup_s" "s" setup_s;
  metric "analyze_s" "s" analyze_s;
  metric "jobs_per_s" "1/s" (ratio (float_of_int (List.length latencies)) busy_s);
  metric "latency_p50_ms" "ms" (1000.0 *. percentile latencies 0.5);
  metric "latency_p90_ms" "ms" (1000.0 *. percentile latencies 0.9);
  metric "peak_rss_mb" "MB" (peak_rss_mb ());
  metric "u_final" "count" (float_of_int u);
  metric "smax_final" "count" (float_of_int smax)

(* ---- per-layer measurement ------------------------------------------- *)

let per_layer =
  [
    ("layout.place_s", "s");
    ("layout.route_s", "s");
    ("timing.sta_s", "s");
    ("timing.power_s", "s");
    ("dfm.translate_s", "s");
    ("dfm.faults", "count");
    ("core.cluster_s", "s");
    ("atpg.classify_s", "s");
    ("atpg.sat_s", "s");
    ("atpg.random_s", "s");
    ("atpg.sat_queries", "count");
    ("atpg.random_resolved_ratio", "ratio");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("sat.unsat_ratio", "ratio");
    ("sat.ns_per_conflict", "ns");
    ("sat.solve_s", "s");
    ("core.implement_calls", "count");
    ("core.candidates", "count");
    ("core.accepted", "count");
    ("core.accept_ratio", "ratio");
    ("core.implement_s", "s");
    ("core.candidate_self_s", "s");
    ("serve.queue_wait_p50_ms", "ms");
    ("serve.job_s", "s");
    ("serve.warm_p50_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("netlist.parse_s", "s");
    ("incr.hits", "count");
    ("incr.misses", "count");
    ("incr.hit_rate", "ratio");
    ("cert.checks", "count");
    ("cert.proof_bytes", "bytes");
    ("cert.check_s", "s");
    ("cert.check_share", "ratio");
    ("obs.span_overhead_pct", "%");
    ("error_rate", "ratio");
  ]

(* Per-layer values gathered over several rounds: each round yields a
   list of (name, value); the reported value is the median over rounds,
   and a layer a workload never exercises reads 0. *)
let emit_layers rounds =
  samples := List.length rounds;
  List.iter
    (fun (name, unit) ->
      let vs = List.filter_map (List.assoc_opt name) rounds in
      metric name unit (median vs))
    per_layer

(* Design.implement replayed call by call through each layer's public
   function, timing every layer.  Returns the design and the layer times. *)
let replay_implement nl =
  let acc = ref [] in
  let layer name f =
    let r, dt = timed f in
    acc := (name, dt) :: !acc;
    r
  in
  let floorplan, placement =
    layer "layout.place_s" (fun () ->
        let fp = Dfm_layout.Floorplan.create nl in
        (fp, Dfm_layout.Place.place ~seed:impl_seed nl fp))
  in
  let routing = layer "layout.route_s" (fun () -> Dfm_layout.Route.route ~seed:impl_seed placement) in
  let timing = layer "timing.sta_s" (fun () -> Dfm_timing.Sta.analyze routing) in
  let power = layer "timing.power_s" (fun () -> Dfm_timing.Power.analyze ~seed:impl_seed routing) in
  let fault_list = layer "dfm.translate_s" (fun () -> Translate.build routing) in
  let faults = fault_list.Translate.faults in
  (* classification is timed from its own span in the traced pass *)
  let classification = Atpg.classify ~seed:impl_seed ~jobs nl faults in
  let cluster =
    layer "core.cluster_s" (fun () ->
        Cluster.compute nl faults ~undetectable:(fun fid ->
            classification.Atpg.status.(fid) = Atpg.Undetectable))
  in
  let d =
    {
      Design.netlist = nl;
      floorplan;
      placement;
      routing;
      timing;
      power;
      fault_list;
      classification;
      cluster;
      escalation = None;
    }
  in
  acc := ("dfm.faults", float_of_int (Array.length faults)) :: !acc;
  (d, !acc)

(* Layer times of several replays, summed per layer. *)
let add_layers a b =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some w -> (k, v +. w) :: List.remove_assoc k acc
      | None -> (k, v) :: acc)
    a b

(* Program counters read around a traced region. *)
type probe = {
  solver : int * int * int;
  sat_s : float;
  cert : Cert.totals;
  counters : int list;
}

let counter_names =
  [
    "dfm_atpg_sat_queries_total";
    "dfm_atpg_faults_classified_total";
    "dfm_cache_hits_total";
    "dfm_cache_misses_total";
  ]

let counter name =
  match Metrics.find_value name with Some (Metrics.Counter n) -> n | _ -> 0

let probe () =
  {
    solver = Dfm_sat.Solver.totals ();
    sat_s = Atpg.sat_seconds ();
    cert = Cert.totals ();
    counters = List.map counter counter_names;
  }

let ns_s ns = Int64.to_float ns *. 1e-9
let span_s (e : Span.event) = ns_s (Int64.sub e.Span.end_ns e.Span.begin_ns)

let spans name events = List.filter (fun (e : Span.event) -> e.Span.name = name) events
let span_total name events = sum (List.map span_s (spans name events))

(* Candidate self time: each candidate span minus the parts of it spent
   inside implement, atpg.classify or sat.solve (counting each nested
   region once, at its outermost such span). *)
let candidate_self events =
  let nested = [ "implement"; "atpg.classify"; "sat.solve" ] in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Span.event) ->
      Hashtbl.replace by_tid e.Span.tid
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.Span.tid)))
    events;
  Hashtbl.fold
    (fun _ evs total ->
      let evs =
        List.sort (fun (a : Span.event) b -> compare a.Span.begin_seq b.Span.begin_seq) evs
      in
      let stack = ref [] and self = ref total in
      List.iter
        (fun (e : Span.event) ->
          stack := List.filter (fun (o : Span.event) -> o.Span.end_seq > e.Span.begin_seq) !stack;
          let marked =
            List.find_opt
              (fun (o : Span.event) -> o.Span.name = "candidate" || List.mem o.Span.name nested)
              !stack
          in
          if e.Span.name = "candidate" then self := !self +. span_s e
          else if List.mem e.Span.name nested then begin
            match marked with
            | Some o when o.Span.name = "candidate" -> self := !self -. span_s e
            | _ -> ()
          end;
          stack := e :: !stack)
        evs;
      !self)
    by_tid 0.0

(* Run [f] with spans and timing histograms on; return its result, the
   completed spans and the counter deltas. *)
let traced f =
  ignore (Span.drain () : Span.event list);
  Span.set_enabled true;
  Metrics.set_timing_enabled true;
  let p0 = probe () in
  let r = Fun.protect ~finally:(fun () -> Span.set_enabled false; Metrics.set_timing_enabled false) f in
  let p1 = probe () in
  let events = Span.drain () in
  if Span.dropped () > 0 then prerr_endline "perfbench: span buffer overflowed";
  (r, events, p0, p1)

(* Layer metrics read from the program's spans and counters over one
   traced region, divided by [units] (passes or jobs). *)
let traced_layers ~units ~accepted events p0 p1 =
  let per x = x /. units in
  let c0, d0, q0 = p0.solver and c1, d1, q1 = p1.solver in
  let dc i = float_of_int (List.nth p1.counters i - List.nth p0.counters i) in
  let queries = dc 0 and classified = dc 1 and hits = dc 2 and misses = dc 3 in
  let sat_s = p1.sat_s -. p0.sat_s in
  let classify_s = span_total "atpg.classify" events in
  let solves = spans "sat.solve" events in
  let unsat =
    List.length (List.filter (fun (e : Span.event) -> List.assoc_opt "result" e.Span.attrs = Some "unsat") solves)
  in
  let candidates = float_of_int (List.length (spans "candidate" events)) in
  let conflicts = float_of_int (c1 - c0) in
  let check_s = ns_s (Int64.of_int (p1.cert.Cert.check_ns - p0.cert.Cert.check_ns)) in
  let jobs_s = span_total "serve.job" events in
  [
    ("atpg.classify_s", per classify_s);
    ("atpg.sat_s", per sat_s);
    ("atpg.random_s", per (Float.max 0.0 (classify_s -. sat_s)));
    ("atpg.sat_queries", per queries);
    ("atpg.random_resolved_ratio", ratio (classified -. queries -. hits) classified);
    ("sat.conflicts", per conflicts);
    ("sat.decisions", per (float_of_int (d1 - d0)));
    ("sat.propagations", per (float_of_int (q1 - q0)));
    ("sat.unsat_ratio", ratio (float_of_int unsat) (float_of_int (List.length solves)));
    ("sat.ns_per_conflict", ratio (sat_s *. 1e9) conflicts);
    ("sat.solve_s", per (span_total "sat.solve" events));
    ("core.implement_calls", per (float_of_int (List.length (spans "implement" events))));
    ("core.candidates", per candidates);
    ("core.accepted", per accepted);
    ("core.accept_ratio", ratio accepted candidates);
    ("core.implement_s", per (span_total "implement" events));
    ("core.candidate_self_s", per (candidate_self events));
    ("serve.job_s", median (List.map span_s (spans "serve.job" events)));
    ("incr.hits", per hits);
    ("incr.misses", per misses);
    ("incr.hit_rate", ratio hits (hits +. misses));
    ("cert.checks", per (float_of_int (p1.cert.Cert.checked - p0.cert.Cert.checked)));
    ("cert.proof_bytes", per (float_of_int (p1.cert.Cert.proof_bytes - p0.cert.Cert.proof_bytes)));
    ("cert.check_s", per check_s);
    ("cert.check_share", ratio check_s jobs_s);
  ]

let overhead_pct ~untraced ~traced = 100.0 *. (ratio traced untraced -. 1.0)

(* ---- inputs ---------------------------------------------------------- *)

let analyze_blocks = function
  | "analyze-sat" -> [ ("aes_core", 1.0); ("sparc_fpu", 1.0); ("sparc_ifu", 1.0) ]
  | "analyze-layout" -> [ ("des_perf", 1.0); ("sparc_exu", 1.0); ("systemcaes", 1.0) ]
  | _ -> []

let resynth_blocks = [ ("sparc_spu", 1.0); ("tv80", 0.5) ]

(* serve: the warm tenant resubmits one netlist; the cold tenant walks a
   seed-shuffled sequence of distinct netlists of similar size, after one
   warm-up netlist of its own. *)
let serve_warm = ("sparc_exu", 0.5)
let serve_cold_warmup = ("sparc_spu", 0.25)

(* One block at 24 nearby scales: distinct netlists of similar cost, so
   the seed's order barely moves the latency percentiles.  (Scales closer
   than 0.02 can generate the same netlist.) *)
let serve_cold_pool = List.init 24 (fun i -> ("sparc_spu", 0.30 +. (0.02 *. float_of_int i)))

(* Generation repeated [n] times: the median is the set-up cost and the
   last netlists are the workload's inputs. *)
let generate ?(n = 3) blocks =
  let runs =
    List.init n (fun _ ->
        timed (fun () ->
            List.map (fun (name, scale) -> (name, scale, Circuits.build ~scale name)) blocks))
  in
  (fst (List.hd (List.rev runs)), median (List.map snd runs))

(* ---- analyze-sat / analyze-layout / resynth -------------------------- *)

let implement nl = Design.implement ~jobs nl

(* What one timed operation leaves behind.  The designs themselves are
   dropped: keeping them would grow the heap, and the peak RSS, with the
   number of passes a run makes. *)
type op = {
  replayed : Design.metrics;  (** of the design the layer replay must match *)
  u_final : int;
  smax_final : int;
  accepted : int;
  implement_s : float;  (** Design.implement time within the operation *)
  total_s : float;
}

let analyze_op (name, scale, nl) =
  prepare ();
  let d, dt = timed (fun () -> implement nl) in
  let f = facts_of d in
  check (key name scale) (facts_errors (expected_facts name scale) f);
  {
    replayed = Design.metrics d;
    u_final = f.u;
    smax_final = f.smax;
    accepted = 0;
    implement_s = dt;
    total_s = dt;
  }

(* One campaign as the resynth subcommand runs it: implement the block,
   then Resynth.run on the result. *)
let campaign_op (name, scale, nl) =
  prepare ();
  let d0, implement_s = timed (fun () -> implement nl) in
  prepare ();
  let r, run_s = timed (fun () -> Resynth.run d0) in
  check ("resynth " ^ key name scale) (campaign_errors (expected_campaign name scale) r);
  let m1 = Design.metrics r.Resynth.final in
  {
    replayed = Design.metrics d0;
    u_final = m1.Design.u;
    smax_final = m1.Design.s_max;
    accepted = r.Resynth.accepted;
    implement_s;
    total_s = implement_s +. run_s;
  }

(* Setup (generation and one warm-up pass), then whole passes over the
   blocks in seed-shuffled order until [seconds] have gone by.  Untraced,
   the end-to-end metrics; traced, each round pairs an untraced and a
   traced pass (alternating which goes first) and replays Design.implement
   layer by layer on every block. *)
let run_blocks ~rng ~seconds ~trace ~op blocks =
  let inputs, gen_s = generate blocks in
  let warm_s = sum (List.map (fun o -> o.total_s) (List.map op inputs)) in
  let t0 = now () in
  let continue () = now () -. t0 < seconds in
  let pass order = List.map op order in
  if not trace then begin
    let passes = ref [] in
    while !passes = [] || continue () do
      passes := pass (shuffle rng inputs) :: !passes
    done;
    let last = List.hd !passes in
    let latencies = List.concat_map (List.map (fun o -> o.total_s)) !passes in
    end_to_end ~setup_s:(gen_s +. warm_s)
      ~analyze_s:(median (List.map (fun p -> sum (List.map (fun o -> o.implement_s) p)) !passes))
      ~latencies ~busy_s:(sum latencies)
      ~u:(List.fold_left (fun a o -> a + o.u_final) 0 last)
      ~smax:(List.fold_left (fun a o -> a + o.smax_final) 0 last)
  end
  else begin
    let rounds = ref [] in
    while !rounds = [] || continue () do
      let order = shuffle rng inputs in
      let plain () = sum (List.map (fun o -> o.total_s) (pass order)) in
      let traced_pass () =
        let ops, events, p0, p1 = traced (fun () -> pass order) in
        let accepted = float_of_int (List.fold_left (fun a o -> a + o.accepted) 0 ops) in
        (ops, sum (List.map (fun o -> o.total_s) ops), traced_layers ~units:1.0 ~accepted events p0 p1)
      in
      let untraced, (ops, traced_s, layers) =
        if List.length !rounds mod 2 = 0 then
          let u = plain () in
          (u, traced_pass ())
        else
          let t = traced_pass () in
          (plain (), t)
      in
      let replayed =
        List.map2
          (fun (name, scale, nl) o ->
            let d, layers = replay_implement nl in
            check ("replay " ^ key name scale)
              (if Design.metrics d = o.replayed then []
               else [ "layer replay disagrees with Design.implement" ]);
            layers)
          order ops
      in
      rounds :=
        (("obs.span_overhead_pct", overhead_pct ~untraced ~traced:traced_s)
         :: List.fold_left add_layers [] replayed
        @ layers)
        :: !rounds
    done;
    emit_layers
      (List.map
         (fun r -> ("error_rate", ratio (float_of_int !failed) (float_of_int !attempted)) :: r)
         !rounds)
  end

(* ---- serve ----------------------------------------------------------- *)

let run_dir () =
  let base = ".perfbench-run" in
  (try Sys.mkdir base 0o755 with Sys_error _ -> ());
  let d = Filename.concat base (string_of_int (Unix.getpid ())) in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let rec remove_tree p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun c -> remove_tree (Filename.concat p c)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* An in-process daemon on a fresh state dir; [f] gets its socket path.
   The daemon is drained and its thread joined before returning. *)
let with_daemon f =
  let dir = run_dir () in
  let sock = Filename.concat dir "d.sock" in
  let m = Mutex.create () and c = Condition.create () in
  let state = ref `Starting in
  let signal s =
    Mutex.protect m (fun () ->
        if !state = `Starting then state := s;
        Condition.broadcast c)
  in
  let th =
    Thread.create
      (fun () ->
        try
          ignore
            (Daemon.run
               ~on_ready:(fun () -> signal `Ready)
               {
                 Daemon.socket_path = sock;
                 state_dir = Filename.concat dir "state";
                 jobs;
                 certify = true;
               }
              : int);
          signal `Stopped
        with e -> signal (`Failed (Printexc.to_string e)))
      ()
  in
  Mutex.protect m (fun () ->
      while !state = `Starting do
        Condition.wait c m
      done);
  (match !state with
  | `Failed e -> failwith ("daemon did not start: " ^ e)
  | _ -> ());
  let stop () =
    (match Client.connect sock with
    | Ok cl ->
        ignore (Client.request cl P.Drain : (P.response, string) result);
        Client.close cl
    | Error _ -> ());
    Thread.join th;
    remove_tree dir
  in
  Fun.protect ~finally:stop (fun () -> f sock)

let submit ~client ~name text =
  {
    P.client;
    kind = P.Analyze;
    name;
    netlist = text;
    limits = { P.no_limits with P.jobs = Some jobs };
    static_filter = false;
    sat_mode = None;
    q_max = None;
    p1 = None;
  }

(* The counts a daemon report states, parsed from its metrics line. *)
let report_facts report =
  let line =
    List.find_opt
      (fun l -> String.length l > 2 && String.sub l 0 2 = "F=")
      (String.split_on_char '\n' report)
  in
  match line with
  | None -> None
  | Some l -> (
      try
        Some
          (Scanf.sscanf l "F=%d U=%d (in=%d ex=%d) Cov=%f%% Smax=%d"
             (fun f u u_in u_ex _ smax -> { f; u; u_in; u_ex; smax; queries = 0 }))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

type job = { tenant : string; latency : float; facts : facts option }

(* One job over a persistent connection, checked against the oracle. *)
let serve_job conn ~tenant (name, scale, text) =
  let r, latency = timed (fun () -> Client.submit_and_wait conn (submit ~client:tenant ~name text)) in
  let facts, errors =
    match r with
    | Error e -> (None, [ e ])
    | Ok p when p.P.r_outcome <> "done" -> (None, [ "outcome " ^ p.P.r_outcome ^ ": " ^ p.P.r_report ])
    | Ok p -> (
        match report_facts p.P.r_report with
        | None -> (None, [ "report has no metrics line" ])
        | Some g ->
            (Some g, facts_errors ~queries:false (expected_facts ~served:true name scale) g))
  in
  check (Printf.sprintf "serve %s %s" tenant (key name scale)) errors;
  { tenant; latency; facts }

let connect sock =
  match Client.connect sock with Ok c -> c | Error e -> failwith ("connect: " ^ e)

(* Two closed-loop tenants until [deadline]; the cold tenant continues
   its sequence from [next].  Returns the completed jobs. *)
let serve_phase sock ~warm ~cold ~next ~deadline =
  let warm_jobs = ref [] and cold_jobs = ref [] in
  let loop tenant out pick =
    let conn = connect sock in
    Fun.protect
      ~finally:(fun () -> Client.close conn)
      (fun () ->
        while now () < deadline do
          out := serve_job conn ~tenant (pick ()) :: !out
        done)
  in
  let tw = Thread.create (fun () -> loop "warm" warm_jobs (fun () -> warm)) () in
  let tc =
    Thread.create
      (fun () ->
        loop "cold" cold_jobs (fun () ->
            let i = !next in
            incr next;
            cold.(i mod Array.length cold)))
      ()
  in
  Thread.join tw;
  Thread.join tc;
  !warm_jobs @ !cold_jobs

let service_by_tenant sock =
  let conn = connect sock in
  Fun.protect
    ~finally:(fun () -> Client.close conn)
    (fun () ->
      match Client.request conn (P.Status None) with
      | Ok (P.Status_report { clients; _ }) ->
          List.map (fun cv -> (cv.P.cv_client, (cv.P.cv_jobs, cv.P.cv_service_s))) clients
      | _ -> failwith "status request failed")

let queue_wait_buckets () =
  match Metrics.find_value "dfm_serve_queue_wait_ms" with
  | Some (Metrics.Histogram { buckets; _ }) -> buckets
  | _ -> [||]

(* p-quantile of the samples recorded between two histogram snapshots,
   at the upper edge of the bucket it falls in. *)
let bucket_percentile b0 b1 p =
  let n = Array.length b1 in
  if n = 0 then 0.0
  else
    let count i = snd b1.(i) - if Array.length b0 = n then snd b0.(i) else 0 in
    let total = count (n - 1) in
    if total = 0 then 0.0
    else
      let want = p *. float_of_int total in
      let rec go i = if i >= n - 1 || float_of_int (count i) >= want then fst b1.(i) else go (i + 1) in
      go 0

let run_serve ~rng ~seconds ~trace =
  let texts blocks =
    List.map (fun (name, scale, nl) -> (name, scale, Netlist_io.to_string nl)) blocks
  in
  let gen () =
    timed (fun () ->
        let g b = texts (fst (generate ~n:1 b)) in
        (List.hd (g [ serve_warm ]), List.hd (g [ serve_cold_warmup ]), g serve_cold_pool))
  in
  let runs = List.init 3 (fun _ -> gen ()) in
  let (warm, cold_warmup, pool), _ = List.hd runs in
  let gen_s = median (List.map snd runs) in
  let distinct = List.sort_uniq compare (List.map (fun (_, _, t) -> Digest.string t) pool) in
  check "serve cold pool"
    (if List.length distinct = List.length pool then [] else [ "cold netlists are not distinct" ]);
  let cold = Array.of_list (shuffle rng pool) in
  prepare ();
  let started = now () in
  with_daemon @@ fun sock ->
  let conn = connect sock in
  ignore (serve_job conn ~tenant:"warm" warm : job);
  ignore (serve_job conn ~tenant:"cold" cold_warmup : job);
  Client.close conn;
  let setup_s = gen_s +. (now () -. started) in
  let before = service_by_tenant sock in
  let qw0 = queue_wait_buckets () in
  let next = ref 0 in
  let t0 = now () in
  (* The tenants run in phases of [phase_s], with a host-speed sample
     between phases while the daemon is idle. *)
  let phase ~wrap phase_s =
    prepare ();
    let (jobs_done, extra), wall =
      timed (fun () -> wrap (fun () -> serve_phase sock ~warm ~cold ~next ~deadline:(now () +. phase_s)))
    in
    (jobs_done, extra, wall)
  in
  if not trace then begin
    let phases = ref [] in
    while !phases = [] || now () -. t0 < seconds do
      phases := phase ~wrap:(fun run -> (run (), ())) 1.5 :: !phases
    done;
    prepare ();
    let done_ = List.concat_map (fun (j, (), _) -> j) !phases in
    let wall = sum (List.map (fun (_, (), w) -> w) !phases) in
    let after = service_by_tenant sock in
    let mean_service tenant =
      let j0, s0 = Option.value ~default:(0, 0.0) (List.assoc_opt tenant before) in
      let j1, s1 = Option.value ~default:(0, 0.0) (List.assoc_opt tenant after) in
      ratio (s1 -. s0) (float_of_int (j1 - j0))
    in
    let last_warm = List.find_opt (fun j -> j.tenant = "warm" && j.facts <> None) done_ in
    let u, smax =
      match last_warm with Some { facts = Some f; _ } -> (f.u, f.smax) | _ -> (0, 0)
    in
    end_to_end ~setup_s
      ~analyze_s:(mean_service "warm" +. mean_service "cold")
      ~latencies:(List.map (fun j -> j.latency) done_)
      ~busy_s:wall ~u ~smax
  end
  else begin
    (* Four phases, alternating untraced and traced; only the traced ones
       feed the span-derived layers. *)
    let phase_s = seconds /. 4.0 in
    let rounds = ref [] and all = ref [] in
    for k = 0 to 3 do
      let traced_phase = k mod 2 = 1 in
      let jobs_done, layers, _ =
        if traced_phase then
          phase phase_s ~wrap:(fun run ->
              let j, events, p0, p1 = traced run in
              (j, traced_layers ~units:(float_of_int (max 1 (List.length j))) ~accepted:0.0 events p0 p1))
        else phase phase_s ~wrap:(fun run -> (run (), []))
      in
      all := jobs_done @ !all;
      let mean_latency = sum (List.map (fun j -> j.latency) jobs_done) /. float_of_int (max 1 (List.length jobs_done)) in
      rounds := (traced_phase, mean_latency, layers) :: !rounds
    done;
    prepare ();
    let phases = List.rev !rounds in
    let overheads =
      let rec pairs = function
        | (false, u, _) :: (true, t, _) :: rest -> overhead_pct ~untraced:u ~traced:t :: pairs rest
        | _ -> []
      in
      pairs phases
    in
    let lat tenant =
      1000.0 *. median (List.filter_map (fun j -> if j.tenant = tenant then Some j.latency else None) !all)
    in
    let replayed =
      let (wn, ws, wt) = warm and (cn, cs, ct) = cold.(0) in
      let one (name, scale, text) =
        let nl, parse_s = timed (fun () -> Netlist_io.read ~library:Dfm_cellmodel.Osu018.library text) in
        let d, layers = replay_implement nl in
        check ("replay " ^ key name scale)
          (facts_errors ~queries:false (expected_facts ~served:true name scale) (facts_of d));
        (* per job: the warm and the cold job each parse once *)
        ("netlist.parse_s", parse_s /. 2.0)
        :: List.map (fun (k, v) -> (k, v /. 2.0)) layers
      in
      add_layers (one (wn, ws, wt)) (one (cn, cs, ct))
    in
    let qw1 = queue_wait_buckets () in
    let common =
      [
        ("serve.queue_wait_p50_ms", bucket_percentile qw0 qw1 0.5);
        ("serve.warm_p50_ms", lat "warm");
        ("serve.cold_p50_ms", lat "cold");
        ("obs.span_overhead_pct", median overheads);
        ("error_rate", ratio (float_of_int !failed) (float_of_int !attempted));
      ]
      @ replayed
    in
    emit_layers
      (List.filter_map (fun (tr, _, layers) -> if tr then Some (common @ layers) else None) phases)
  end

(* ---- oracle table ---------------------------------------------------- *)

let regen () =
  print_endline "# Oracle for perfbench: regenerate with `bench.exe --regen`.";
  print_endline "# analyze|served NAME SCALE F U U_in U_ex Smax sat_queries";
  let analyze kind nl_of (name, scale) =
    let f = facts_of (implement (nl_of (Circuits.build ~scale name))) in
    Printf.printf "%s %s %g %d %d %d %d %d %d\n%!" kind name scale f.f f.u f.u_in f.u_ex f.smax
      f.queries
  in
  List.iter (analyze "analyze" Fun.id)
    (analyze_blocks "analyze-sat" @ analyze_blocks "analyze-layout" @ resynth_blocks);
  List.iter
    (analyze "served" (fun nl ->
         Netlist_io.read ~library:Dfm_cellmodel.Osu018.library (Netlist_io.to_string nl)))
    (serve_warm :: serve_cold_warmup :: serve_cold_pool);
  print_endline "# resynth NAME SCALE U0 Smax0 U1 Smax1 accepted";
  List.iter
    (fun (name, scale) ->
      let r = Resynth.run (implement (Circuits.build ~scale name)) in
      let m0 = Design.metrics r.Resynth.initial and m1 = Design.metrics r.Resynth.final in
      Printf.printf "resynth %s %g %d %d %d %d %d\n%!" name scale m0.Design.u m0.Design.s_max
        m1.Design.u m1.Design.s_max r.Resynth.accepted)
    resynth_blocks

(* ---- main ------------------------------------------------------------ *)

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --regen"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let regen_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " analyze-sat | analyze-layout | resynth | serve");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--regen", Arg.Set regen_only, " print the oracle table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  Dfm_obs.Progress.set_enabled false;
  Dfm_util.Parallel.set_default_jobs jobs;
  if !regen_only then regen ()
  else begin
    let rng = Dfm_util.Rng.create !seed in
    let trace = !trace = 1 in
    ignore (Lazy.force expected);
    (match !workload with
    | ("analyze-sat" | "analyze-layout") as w ->
        run_blocks ~rng ~seconds:!seconds ~trace ~op:analyze_op (analyze_blocks w)
    | "resynth" -> run_blocks ~rng ~seconds:!seconds ~trace ~op:campaign_op resynth_blocks
    | "serve" -> run_serve ~rng ~seconds:!seconds ~trace
    | w ->
        prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
        exit 2);
    print_result
      (Printf.sprintf
         "\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"ocaml\": %S, \
          \"recommended_domains\": %d, \"jobs\": %d, \"warmup\": true, \"samples\": %d"
         !workload !seed !seconds trace Sys.ocaml_version (Domain.recommended_domain_count ()) jobs
         !samples)
  end
