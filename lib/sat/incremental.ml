(* Session layer over the persistent solver: activation-literal management
   for many enable/disable-able clause groups sharing one instance.

   One session = one solver living across many queries.  A query gets an
   activation literal [a]; its clauses are added guarded as [¬a ∨ C] and
   enabled by assuming [a].  Clauses learnt while [a] was assumed either
   contain [¬a] or are consequences of the unguarded CNF alone — both are
   sound for every later query, which is what makes cross-query clause
   reuse free.

   Retiring a query adds the unit [¬a], permanently satisfying its guarded
   clauses, and pins the query's private ("local") variables at level 0 so
   the branching heuristic never wastes decisions on unconstrained garbage.
   Pinning is sound: with [a] false the local variables are unconstrained
   by construction (every clause mentioning them carries [¬a]), so fixing
   them cannot change satisfiability of anything that remains. *)

type session = {
  solver : Solver.t;
  mutable n_activations : int;
  mutable n_retired : int;
  mutable n_solves : int;
  mutable reused : int;          (* cumulative pre-existing clauses at solve *)
  mutable last_nclauses : int;   (* clause count when the previous solve ran *)
}

type stats = {
  activations : int;
  retired : int;
  solves : int;
  clauses_reused : int;
}

let m_sessions =
  Dfm_obs.Metrics.counter ~help:"Incremental SAT sessions created"
    "dfm_sat_incr_sessions_total"

let m_session_solves =
  Dfm_obs.Metrics.counter ~help:"Solves issued through incremental sessions"
    "dfm_sat_incr_solves_total"

let m_activations =
  Dfm_obs.Metrics.counter ~help:"Activation literals allocated in incremental sessions"
    "dfm_sat_incr_activations_total"

let m_retired =
  Dfm_obs.Metrics.counter ~help:"Activation groups retired in incremental sessions"
    "dfm_sat_incr_retired_total"

let m_reused =
  Dfm_obs.Metrics.counter
    ~help:"Clauses already present when an incremental solve started (reuse)"
    "dfm_sat_incr_clauses_reused_total"

let create ?counted () =
  Dfm_obs.Metrics.incr m_sessions;
  {
    solver = Solver.create ?counted ();
    n_activations = 0;
    n_retired = 0;
    n_solves = 0;
    reused = 0;
    last_nclauses = 0;
  }

let solver t = t.solver

let new_activation t =
  t.n_activations <- t.n_activations + 1;
  Dfm_obs.Metrics.incr m_activations;
  Solver.new_var t.solver

let add_guarded t ~act lits = Solver.add_clause t.solver (-act :: lits)

let add_permanent t lits = Solver.add_clause t.solver lits

let solve ?(assumptions = []) ?max_conflicts t ~act =
  (* Clause-reuse accounting: everything present at the {e previous} solve
     is inherited state this query did not pay to encode. *)
  t.reused <- t.reused + t.last_nclauses;
  Dfm_obs.Metrics.incr ~by:t.last_nclauses m_reused;
  t.n_solves <- t.n_solves + 1;
  Dfm_obs.Metrics.incr m_session_solves;
  let r = Solver.solve ~assumptions:(act :: assumptions) ?max_conflicts t.solver in
  t.last_nclauses <- Solver.num_clauses t.solver;
  r

let retire t ~act ~locals =
  t.n_retired <- t.n_retired + 1;
  Dfm_obs.Metrics.incr m_retired;
  Solver.add_clause t.solver [ -act ];
  (* Pin still-free local variables (see the soundness note above).  A local
     already fixed at level 0 — e.g. through a learnt unit resolving against
     [¬act] — is left alone. *)
  List.iter
    (fun v ->
      match Solver.root_value t.solver v with
      | None -> Solver.add_clause t.solver [ v ]
      | Some _ -> ())
    locals

let stats t =
  {
    activations = t.n_activations;
    retired = t.n_retired;
    solves = t.n_solves;
    clauses_reused = t.reused;
  }
