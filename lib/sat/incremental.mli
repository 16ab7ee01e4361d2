(** Incremental SAT sessions: activation-literal bookkeeping over one
    persistent {!Solver} instance.

    A session hosts many queries against one growing CNF.  Shared
    ("permanent") clauses are added once; each query allocates an
    activation literal [a], contributes its private clauses guarded as
    [¬a ∨ C], and is solved under the assumption [a].  Learnt clauses are
    retained across queries — each is a resolution consequence of the full
    guarded CNF, so reuse is sound for every later query (the guarded
    clauses of query [A] are invisible to query [B] unless a learnt clause
    carries [¬a_A], in which case assuming nothing about [a_A] keeps it
    harmless).  Once a query's verdict is final it is {!retire}d: the unit
    [¬a] permanently satisfies its guarded clauses and its private
    variables are pinned at level 0, so the dead encoding costs later
    solves nothing.

    Sessions are single-domain objects (no internal locking): create one
    per worker, never share across domains. *)

type session

type stats = {
  activations : int;      (** activation literals allocated *)
  retired : int;          (** activation groups retired *)
  solves : int;           (** solves issued through the session *)
  clauses_reused : int;
      (** cumulative count of clauses already present when each solve
          started — the work inherited rather than re-encoded *)
}

val create : ?counted:bool -> unit -> session
(** [counted] is passed through to {!Solver.create}: verification-only
    sessions use [~counted:false] so their effort stays out of the
    process-wide totals. *)

val solver : session -> Solver.t
(** The underlying solver, for encoders that allocate variables and for
    model extraction after a [Sat] answer. *)

val new_activation : session -> int
(** Fresh activation literal (a plain solver variable, counted). *)

val add_guarded : session -> act:int -> int list -> unit
(** [add_guarded s ~act c] adds the clause [¬act ∨ c]: active only while
    [act] is assumed. *)

val add_permanent : session -> int list -> unit
(** Add an unguarded clause, shared by every query of the session. *)

val solve :
  ?assumptions:int list -> ?max_conflicts:int -> session -> act:int -> Solver.result
(** Solve with [act] (plus any extra [assumptions]) assumed.  Retained
    learnt clauses make repeat solves of related queries cheaper; the
    reuse is visible in {!stats} and the [dfm_sat_incr_*] metrics. *)

val retire : session -> act:int -> locals:int list -> unit
(** Permanently disable the activation group: add the unit [¬act] and pin
    the group's private variables ([locals]) at level 0.  Sound because
    every clause over a local carries [¬act]; required so retired queries
    cost later solves neither decisions nor propagations.  Call only once
    the query's verdict is final. *)

val stats : session -> stats
