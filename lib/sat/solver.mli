(** A persistent, incremental conflict-driven clause-learning (CDCL) SAT
    solver.

    This is the decision engine of the ATPG: fault-detection miters are
    encoded to CNF and solved here.  SAT yields a test pattern; UNSAT is a
    proof that the fault is undetectable (the property the whole paper is
    about).  The implementation is a classic CDCL with two-watched-literal
    propagation, first-UIP clause learning, VSIDS-style activity-based
    branching (heap-ordered) with phase saving, and Luby restarts.

    One instance is built for {e reuse}: clauses may be added between
    solves, each {!solve} may carry its own assumption literals, and the
    state left behind is always clean — the trail is fully unwound to
    level 0 and a SAT answer survives in a model snapshot.  Learnt clauses
    persist across solves (that is where incremental reuse pays) and are
    kept in check by LBD/activity reduction sweeps plus on-the-fly
    subsumption during conflict analysis.

    Many queries share one instance through activation literals: a query
    allocates a variable [act] with {!new_var}, adds its private clauses
    guarded as [¬act ∨ C], solves with [act] among the assumptions, and is
    switched off for good with {!retire} once its verdict is final.  A
    clause learnt while [act] was assumed either carries [¬act] or follows
    from the unguarded clauses alone, so it stays sound for every later
    query.

    Instances are single-domain objects (no internal locking).

    Literals in the public API are non-zero integers in DIMACS convention:
    [+v] is variable [v], [-v] its negation, variables start at 1. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown  (** conflict budget exhausted *)

(** Clausal derivation trace, the raw material for UNSAT certificates
    (see {!Cert}).  [Trace_original] fires for every clause given to
    {!add_clause} (verbatim, pre-normalization); [Trace_learnt] fires for
    every clause the search derives — including learnt units and the empty
    clause — with the asserting literal first.  Each learnt clause is a
    resolvent of previously traced clauses, so the stream is a DRUP-style
    proof independent of any query's assumptions.  Clause deletions are
    not traced; a consumer that keeps everything stays sound. *)
type trace_event = Trace_original of int list | Trace_learnt of int list

val create : ?counted:bool -> unit -> t
(** [counted] (default [true]): whether this instance's effort flushes
    into the process-wide {!totals} and metrics.  Certificate-checking
    helpers pass [~counted:false] so verification work never perturbs
    campaign effort accounting. *)

val set_trace : t -> (trace_event -> unit) option -> unit
(** Install (or remove) the derivation tracer.  The callback runs inline
    on the search path; keep it cheap. *)

val new_var : t -> int
(** Allocate and return the next variable index. *)

val add_clause : t -> int list -> unit
(** Add a clause (a disjunction of literals).  Adding the empty clause makes
    the instance trivially unsatisfiable.  May be called freely between
    solves; any leftover search state is unwound first. *)

val solve : ?assumptions:int list -> ?max_conflicts:int -> t -> result
(** Solve under optional assumption literals.  [max_conflicts] bounds the
    search; default is unbounded (the benches rely on full proofs).

    Assumptions are placed as pseudo-decisions on levels [1 .. n] before
    ordinary branching; a conflict at or below those levels means the CNF
    contradicts the assumptions and yields [Unsat].  Whatever the result,
    the solver returns with its trail fully unwound to level 0 —
    assumptions never leak into later solves ({!check_invariants} audits
    this). *)

val value : t -> int -> bool
(** Value of a variable in the model snapshot of the last [Sat] answer.
    Only meaningful after [Sat]; unaffected by later clause additions. *)

val focus_vars : t -> int list -> unit
(** Bump the given variables (1-based ids; unknown ids ignored) to the top
    of the branching order.  Callers sharing one instance across queries
    pass a new query's private variables so the search settles the fresh
    cone before wandering the shared CNF.  Purely heuristic: answers are
    unaffected. *)

val retire : t -> act:int -> locals:int list -> unit
(** Permanently disable an activation group: add the unit [¬act] and pin
    each still-free variable of [locals] (the group's private variables)
    at level 0.  Sound because every clause over a local carries [¬act];
    required so retired queries cost later solves neither decisions nor
    propagations.  Call only once the query's verdict is final.
    @raise Invalid_argument if a local is outside [1 .. num_vars]. *)

val totals : unit -> int * int * int
(** Process-wide [(conflicts, decisions, propagations)] accumulated across
    every solver instance in every domain, flushed once per {!solve}: the
    values of the [dfm_sat_conflicts_total], [dfm_sat_decisions_total] and
    [dfm_sat_propagations_total] metric counters.
    Deltas over a classification are the same at any [--jobs] count:
    [Atpg.classify] partitions its queries into sessions by the fault list
    alone, never by the job count. *)

(** {1 Debug / test support} *)

val num_vars : t -> int

val ensure_vars : t -> int -> unit
(** Make sure variables [1 .. n] exist. *)

val lit_value : t -> int -> bool
(** Value of a literal in the last model. *)

val num_clauses : t -> int

val num_learnts : t -> int
(** Live learnt clauses currently retained. *)

val num_conflicts : t -> int
(** Per-instance conflict count.  Counting is unconditional (it happens
    whether or not observability is enabled), so effort numbers never
    depend on instrumentation state. *)

val check_invariants : t -> unit
(** Audit the between-solve invariants: trail fully unwound (level 0,
    propagation queue drained), assignment/trail consistency, and every
    live clause of size >= 2 watched on exactly its first two literals.
    @raise Failure with a description on any violation.  Intended for the
    test suite; cost is linear in the clause database. *)

val learnt_clauses : t -> int list list
(** The live learnt clauses, as external literals.  Every one is a logical
    consequence of the clauses added so far — the property test re-proves
    this against a fresh solver. *)
