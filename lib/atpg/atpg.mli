(** Automatic test pattern generation campaigns over a DFM fault list.

    Two entry points share the same detection semantics:

    - {!classify} answers only "which faults are detectable?" — a
      random-pattern phase drops the easy faults, then each survivor gets a
      SAT query whose UNSAT outcome *proves* undetectability.  That proof is
      the only way a fault becomes Undetectable (a cache hit replays a
      verdict an earlier query proved).  This is the fast path used inside
      the resynthesis loop, where only the undetectable counts matter.

    - {!generate} additionally builds a compacted test set [T] (the paper's
      column [T]): faults are processed in order; an undetected fault gets a
      SAT-generated test whose unconstrained inputs are randomized in all 64
      bit positions, the most profitable bit position becomes the test, and
      every fault it detects is dropped.

    Transition faults account for both components (frame-1 initialization and
    frame-2 detection, possibly covered by different tests — the enhanced
    scan pairing documented in [Fault]).

    SAT queries run in {!Encode} sessions.  The faults the random phase
    leaves unresolved are cut, in fault order, into evenly sized blocks of
    at most 512 queries; each block shares one fresh persistent
    {!Dfm_sat.Solver}, its good-circuit CNF is encoded once, each fault
    contributes only activation-guarded faulty-cone clauses, and
    learnt clauses carry from query to query.  Semantic verdicts (Detected
    / Undetectable) do not depend on what a session held before a query.
    Under a {e bounded} [max_conflicts] budget the [Aborted] frontier does:
    retained learnt clauses let a query resolve within a budget that a cold
    solver would exhaust.  The blocks are a pure function of the fault
    list, so that frontier, like every count, is the same at any [jobs].
    At the default unbounded budget no Aborted verdicts exist. *)

type status = Detected | Undetectable | Aborted

type counts = {
  total : int;
  detected : int;
  undetectable : int;
  aborted : int;
  undetectable_internal : int;
  undetectable_external : int;
  sat_queries : int;
}

type escalation_stats = {
  rungs : int;       (** ladder rungs that ran at least one query *)
  retried : int;     (** escalation SAT queries issued *)
  resolved : int;    (** aborts turned into semantic verdicts *)
  residual : int;    (** aborts surviving the whole ladder — reported, never dropped *)
  aborted_per_rung : int list;
      (** aborts remaining {e after} each rung — monotonically non-increasing *)
}

type classification = {
  status : status array;  (** indexed by [fault_id] *)
  counts : counts;
  escalation : escalation_stats option;
      (** the abort-budget ladder's effort, when a bounded [max_conflicts]
          left aborts to retry (see {!classify}) *)
}

type generation = {
  classification : classification;
  tests : bool array list;
      (** compacted test set, patterns over {!Dfm_sim.Logic_sim.inputs} *)
  cross_check_failures : int;
      (** SAT-generated tests the fault simulator disagreed with (0 in a
          healthy build; surfaced for the test suite) *)
}

val sat_seconds : unit -> float
(** Process-wide wall time spent in the SAT phase of classification
    (session setup, per-fault encoding and solving, the escalation ladder
    included), accumulated across every campaign in every domain — the
    random-simulation prefilter is excluded.  Read from the
    [dfm_atpg_sat_ns_total] metric counter.  Like {!Dfm_sat.Solver.totals},
    meant to be delta'd around a fixed query set. *)

val classify :
  ?seed:int ->
  ?max_conflicts:int ->
  ?jobs:int ->
  ?cache:Dfm_incr.Cache.t ->
  ?certify:bool ->
  ?known:status option array ->
  Dfm_netlist.Netlist.t ->
  Dfm_faults.Fault.t array ->
  classification
(** Sixteen 64-pattern blocks of random simulation precede the SAT phase.

    [known], indexed by [fault_id], carries verdicts in from elsewhere —
    the resynthesis campaign carries its parent design point's verdicts
    for faults outside a remapped region.  A [Some Detected] or
    [Some Undetectable] entry is taken as given before anything else runs:
    that fault is never simulated, queried, looked up in [cache] or
    published to it, and it adds no SAT query.  [None] and [Some Aborted]
    carry nothing.  Each [atpg.classify] span notes [carried], the number of
    carried verdicts, which the [dfm_atpg_faults_carried_total] counter
    also counts.  Under [certify] a carried verdict is not re-checked: its
    certificate is the caller's (the campaign proves each remapped region
    equal to its remap, [Dfm_core.Carry.prove_region]).  A [known] whose
    length is not the fault list's raises [Invalid_argument].

    [max_conflicts] (default unbounded) bounds each SAT query.  The faults
    it aborts then climb, in the calling domain, a geometric budget ladder
    [max_conflicts * 4^k]: each rung retries the longest prefix of the
    remaining aborts, in fault order, that keeps the sum of granted budgets
    within 1,000,000 conflicts.  All rungs share one solver session, so a
    retried fault re-solves its still-live activation groups without
    re-encoding and learnt clauses carry from rung to rung: a fault may
    resolve on an {e earlier} rung than a cold solver would need, with the
    same verdict.  Residual aborts stay [Aborted]; [counts.sat_queries]
    includes the ladder's retries and [escalation] reports its effort
    ([None] when nothing aborted).  Escalated verdicts are certified and
    published to [cache] like every other.

    [certify] (default [false]) makes every emitted verdict carry an
    independently checked certificate: Detected verdicts keep their
    detecting pattern (random-simulation witness or SAT model) and are
    re-verified by good/faulty resimulation in the coordinating domain;
    Undetectable verdicts from the SAT phase have their learnt-clause
    proofs replayed through {!Dfm_sat.Cert.Check}; cache hits are
    restricted to entries published by a certified run whose stored
    certificate mark validated; carried verdicts are taken as given.  A
    failed check raises {!Dfm_sat.Cert.Check_failed} instead of returning.  The
    classification (statuses and counts) is bit-identical to the
    uncertified run — certification only adds checks, never changes a
    verdict — and the check counts in {!Dfm_sat.Cert.totals} are
    per-verdict, hence identical for every [jobs] value.

    [jobs] (default {!Dfm_util.Parallel.default_jobs}, i.e. [REPRO_JOBS] or
    the machine's domain count) caps the domains of the SAT phase, which
    submits one {!Dfm_util.Parallel.run} task per block of at most 512
    queries; the random phase runs in the calling domain.  Nothing else
    depends on it: the classification, its SAT queries and their
    conflicts, decisions and propagations, the simulator's work and the
    tasks submitted are the same for every [jobs] value, under any
    [max_conflicts].  [jobs = 1], or a single SAT block, never spawns a
    domain.

    [cache] consults a content-addressed verdict store before {e both} the
    random-simulation prefilter and the SAT phase, and publishes the
    freshly derived Detected/Undetectable verdicts afterwards.  Only the
    faults [known] leaves open are signed and looked up.  Correctness
    invariant: for any netlist and any warm or cold cache state the
    classification is bit-identical to the uncached run — the cache may
    only skip work, never change a verdict.  (Signatures include
    [max_conflicts]; with a {e bounded} budget a warm cache can additionally
    resolve faults that budget would have Aborted — strictly more
    information, never a contradicting verdict.  At the default unbounded
    budget no Aborted verdicts exist and the identity is exact.)  All cache
    traffic happens in the coordinating domain. *)

val generate : Dfm_netlist.Netlist.t -> Dfm_faults.Fault.t array -> generation
(** Unbounded and uncertified, with a fixed seed for the randomized
    don't-care inputs. *)

val coverage : counts -> float
(** The paper's [Cov = 1 - U/F], as a percentage. *)
