(** SAT encoding of fault-detection conditions.

    For each fault a *detection miter* is built over the cone of influence:
    the fault-free circuit restricted to the transitive fanin of the region
    of interest, a faulty copy of the transitive fanout of the fault site,
    an activation constraint specific to the fault model, and a requirement
    that at least one observable point differs.  SAT yields a test pattern;
    UNSAT is a proof that the fault is undetectable — the property whose
    spatial clustering the paper studies.

    Transition faults issue two queries (frame-1 initialization and frame-2
    stuck-at detection, under the enhanced-scan assumption); both must be
    satisfiable for the fault to be detectable.

    {2 Sessions}

    Queries run inside a {!session}: one persistent {!Dfm_sat.Solver}
    whose good-circuit CNF is encoded once and shared.  Propagation cones
    — the faulty fanout copy plus the difference-at-observable-point
    requirement — are also shared, per fault site, under their own
    activation literals (an LRU-bounded window of live cones); each fault
    then contributes only the clauses binding its fault semantics to its
    cone's faulty seed variables, guarded by a per-query activation
    literal, and is solved assuming both literals.  Learnt clauses are
    retained from query to query — each is a consequence of the full
    guarded CNF, so reuse is sound for every later fault; path
    sensitization lemmas about a shared cone in particular carry over
    directly to the next fault at the same site.  A query whose verdict is
    final is retired ({!Dfm_sat.Solver.retire}: activation permanently
    off, private variables pinned); a query that exhausts its conflict
    budget stays pending, and a later [check_incr] of the same fault
    re-solves it under a larger budget without re-encoding anything.

    Verdicts do not depend on what a session held before a query: a fresh
    session per fault gives the same ones.  Only the [cared] sets may be
    wider in a shared session (see below) and, under a finite conflict
    budget, the point at which [Unknown] is returned may differ because
    retained learnt clauses shorten the search.

    Sessions are single-domain objects: create one per worker. *)

type test = {
  values : bool array;
      (** over the controllable points in {!Dfm_sim.Logic_sim.inputs} order;
          points outside the miter's cone of influence are [false] *)
  cared : bool array;
      (** which points the miter actually constrained — the rest may be
          re-randomized freely without losing detection of this fault.  In a
          shared session this is the set of points encoded so far, a
          superset of the fault's own cone: a coarser but still sound
          don't-care mask (every cone input is always included). *)
}

type verdict =
  | Tests of test list  (** one pattern, or two for a transition fault *)
  | Undetectable
  | Unknown  (** conflict budget exhausted (not produced at the defaults) *)

type session

val make_session : ?certify:bool -> Dfm_sim.Logic_sim.t -> session
(** [certify] (default [false]) attaches a {!Dfm_sat.Cert} session to the
    solver: every SAT answer's model and every UNSAT answer's learnt-clause
    proof is replayed through the independent checker before the verdict is
    returned; a discrepancy raises {!Dfm_sat.Cert.Check_failed} rather than
    reporting an unverified verdict. *)

val check_incr :
  ?max_conflicts:int -> session -> Dfm_faults.Fault.t -> verdict
(** Classify one fault inside the shared session.  Re-checking a fault whose
    previous verdict was [Unknown] re-solves its still-live activation
    groups without re-encoding; re-checking a resolved fault re-derives the
    same verdict. *)

(** {2 Introspection (tests, metrics)} *)

val session_solver : session -> Dfm_sat.Solver.t
(** The session's underlying solver, e.g. for
    {!Dfm_sat.Solver.check_invariants} in tests. *)

val activation_counts : session -> int * int
(** [(allocated, retired)]: activation literals the session has allocated
    and retired so far. *)

val pending_parts : session -> int
(** Number of query parts awaiting a final verdict (budget-exhausted). *)

val live_cones : session -> int
(** Number of shared propagation cones currently live (not yet retired by
    the LRU window).  The {!activation_counts} satisfy
    [allocated = retired + pending_parts + live_cones] at any quiescent
    point of a session. *)
