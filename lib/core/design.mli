(** One fully implemented design point: netlist → placement → routing →
    timing/power → DFM fault list → ATPG classification → clustering.

    This is the unit of work the resynthesis procedure iterates on; building
    one is the "one iteration of logic synthesis and physical design with
    test generation" that the paper's [Rtime] column normalizes by. *)

type t = {
  netlist : Dfm_netlist.Netlist.t;
  floorplan : Dfm_layout.Floorplan.t;
  placement : Dfm_layout.Place.t;
  routing : Dfm_layout.Route.t;
  timing : Dfm_timing.Sta.report;
  power : Dfm_timing.Power.report;
  fault_list : Dfm_guidelines.Translate.t;
  classification : Dfm_atpg.Atpg.classification;
  cluster : Cluster.t;
  escalation : Dfm_atpg.Atpg.escalation_stats option;
      (** [classification.escalation], kept for callers that build a [t]
          themselves *)
}

type metrics = {
  f : int;                (** |F| *)
  u : int;                (** undetectable faults *)
  u_internal : int;
  u_external : int;
  coverage : float;       (** 1 - U/F, percent *)
  g_u : int;              (** gates corresponding to undetectable faults *)
  g_max : int;            (** gates in G_max *)
  s_max : int;            (** faults in S_max *)
  s_max_internal : int;
  pct_smax_of_u : float;
  pct_smax_of_f : float;
  pct_smax_internal : float;  (** share of S_max that is internal *)
  delay : float;          (** critical path, ns *)
  power : float;          (** mW *)
  area : float;           (** total cell area, um^2 *)
}

val implement :
  ?seed:int ->
  ?floorplan:Dfm_layout.Floorplan.t ->
  ?previous:t ->
  ?jobs:int ->
  ?cache:Dfm_incr.Cache.t ->
  ?max_conflicts:int ->
  ?certify:bool ->
  ?known:(Dfm_faults.Fault.t array -> Dfm_atpg.Atpg.status option array) ->
  Dfm_netlist.Netlist.t ->
  t
(** Run the whole pipeline.  [max_conflicts] bounds each classification SAT
    query; faults that budget aborts are retried on the geometric ladder of
    {!Dfm_atpg.Atpg.classify} before the cluster view is computed, and the
    spent effort is reported in [classification.escalation].  When [floorplan]
    is given the design must fit it (raises
    {!Dfm_layout.Place.Does_not_fit} otherwise) — that is how the
    fixed-die constraint of the paper is enforced; otherwise the floorplan
    is created at its default utilization.  [previous] enables
    incremental (ECO) placement relative to an earlier design point.
    [jobs] caps the worker domains of the ATPG classification (see
    {!Dfm_atpg.Atpg.classify}); the result is bit-identical for every
    value.  [cache] is handed to the classification so verdicts of
    structurally unchanged fault cones are reused instead of re-derived;
    it too never changes a verdict (see {!Dfm_incr.Cache}).
    [certify] makes the classification (escalation included) verify every
    emitted verdict against an independent certificate — witness
    resimulation for Detected, replayed UNSAT proofs for Undetectable; see
    {!Dfm_atpg.Atpg.classify}.  Metrics, statuses and counts are
    bit-identical to the uncertified run.
    [known] is given the routed fault list and returns the verdicts to
    carry into its classification (the [known] of
    {!Dfm_atpg.Atpg.classify}); the resynthesis campaign passes
    {!Carry.known} of the design point a candidate was remapped from. *)

val metrics : t -> metrics

val undetectable : t -> int -> bool
(** Status lookup for a fault id. *)

val pp_metrics : Format.formatter -> metrics -> unit
