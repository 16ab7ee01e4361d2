module N = Dfm_netlist.Netlist
module Atpg = Dfm_atpg.Atpg
module Span = Dfm_obs.Span

type t = {
  netlist : N.t;
  floorplan : Dfm_layout.Floorplan.t;
  placement : Dfm_layout.Place.t;
  routing : Dfm_layout.Route.t;
  timing : Dfm_timing.Sta.report;
  power : Dfm_timing.Power.report;
  fault_list : Dfm_guidelines.Translate.t;
  classification : Atpg.classification;
  cluster : Cluster.t;
  escalation : Atpg.escalation_stats option;
}

type metrics = {
  f : int;
  u : int;
  u_internal : int;
  u_external : int;
  coverage : float;
  g_u : int;
  g_max : int;
  s_max : int;
  s_max_internal : int;
  pct_smax_of_u : float;
  pct_smax_of_f : float;
  pct_smax_internal : float;
  delay : float;
  power : float;
  area : float;
}

let undetectable t fid = t.classification.Atpg.status.(fid) = Atpg.Undetectable

let implement ?(seed = 3) ?floorplan ?previous ?jobs ?cache ?max_conflicts ?certify ?known netlist =
  Span.with_ "implement"
    ~attrs:[ ("gates", string_of_int (N.num_gates netlist)) ]
  @@ fun () ->
  (* One span per layer, named like the benchmark's per-layer metrics;
     [Atpg] opens atpg.classify (and atpg.escalate inside it) itself. *)
  let floorplan, placement =
    Span.with_ "layout.place" @@ fun () ->
    let floorplan =
      match floorplan with Some fp -> fp | None -> Dfm_layout.Floorplan.create netlist
    in
    let prev_placement = Option.map (fun d -> d.placement) previous in
    (floorplan, Dfm_layout.Place.place ~seed ?previous:prev_placement netlist floorplan)
  in
  let routing = Span.with_ "layout.route" (fun () -> Dfm_layout.Route.route ~seed placement) in
  let timing = Span.with_ "timing.sta" (fun () -> Dfm_timing.Sta.analyze routing) in
  let power = Span.with_ "timing.power" (fun () -> Dfm_timing.Power.analyze ~seed routing) in
  let fault_list = Span.with_ "dfm.translate" (fun () -> Dfm_guidelines.Translate.build routing) in
  let faults = fault_list.Dfm_guidelines.Translate.faults in
  let known = Option.map (fun carry -> carry faults) known in
  let classification =
    Atpg.classify ~seed ?jobs ?cache ?max_conflicts ?certify ?known netlist faults
  in
  let cluster =
    Span.with_ "core.cluster" @@ fun () ->
    Cluster.compute netlist faults
      ~undetectable:(fun fid -> classification.Atpg.status.(fid) = Atpg.Undetectable)
  in
  {
    netlist;
    floorplan;
    placement;
    routing;
    timing;
    power;
    fault_list;
    classification;
    cluster;
    escalation = classification.Atpg.escalation;
  }

let metrics t =
  let c = t.classification.Atpg.counts in
  let faults = t.fault_list.Dfm_guidelines.Translate.faults in
  let s_max = List.length t.cluster.Cluster.smax in
  let s_max_internal = Cluster.smax_internal faults t.cluster in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  {
    f = c.Atpg.total;
    u = c.Atpg.undetectable;
    u_internal = c.Atpg.undetectable_internal;
    u_external = c.Atpg.undetectable_external;
    coverage = Atpg.coverage c;
    g_u = List.length t.cluster.Cluster.gu;
    g_max = List.length t.cluster.Cluster.gmax;
    s_max;
    s_max_internal;
    pct_smax_of_u = pct s_max c.Atpg.undetectable;
    pct_smax_of_f = pct s_max c.Atpg.total;
    pct_smax_internal = pct s_max_internal s_max;
    delay = t.timing.Dfm_timing.Sta.critical_path_delay;
    power = t.power.Dfm_timing.Power.total;
    area = N.total_area t.netlist;
  }

let pp_metrics ppf m =
  Format.fprintf ppf
    "F=%d U=%d (in=%d ex=%d) Cov=%.2f%% Smax=%d (%.2f%% of F) Gmax=%d delay=%.3fns power=%.3fmW"
    m.f m.u m.u_internal m.u_external m.coverage m.s_max m.pct_smax_of_f m.g_max m.delay m.power
