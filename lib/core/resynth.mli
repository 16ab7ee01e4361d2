(** The paper's contribution: the iterative two-phase resynthesis procedure
    (Section III) that eliminates clusters of undetectable DFM faults while
    maintaining the design constraints of die area (frozen floorplan),
    critical-path delay and power (at most [q]% above the original design).

    Phase 1 repeatedly targets the current largest cluster [S_max]: the
    subcircuit [C_sub = G_max − G_zero] is re-mapped with library cells taken
    in decreasing order of internal fault count, excluding the prefix
    [cell_0..cell_i]; physical design runs only when the number of
    undetectable *internal* faults already decreased; a resynthesized design
    is accepted when [S_max] shrank and the total number of undetectable
    faults did not grow.  Phase 1 ends when [S_max] drops below [p1] percent
    of |F| (default 1%) or no further improvement exists.

    Phase 2 targets all gates with undetectable internal faults, accepting
    designs that reduce total [U] while keeping [S_max] below
    [p2 = max(p1, %S_max after phase 1)].

    When a candidate violates the design constraints, the backtracking
    procedure of Section III-C shrinks the set of replaced gates in groups of
    [√n], then returns the last group one gate at a time, accepting the first
    design that satisfies both the constraints and the acceptance criteria.

    The driver sweeps [q] from 0 up to [q_max] (default 5), each round
    applied on top of the previous solution, and keeps the best accepted
    design. *)

type event = Checkpoint.event = {
  ev_q : int;
  ev_phase : int;                 (** 1 or 2 *)
  ev_cell : string option;        (** the excluded-prefix boundary cell *)
  ev_action : string;             (** accept / reject-... / backtrack-accept *)
  ev_u : int;
  ev_u_internal : int;
  ev_smax : int;
  ev_delay : float;
  ev_power : float;
}

type effort = Checkpoint.effort = {
  implement_calls : int;   (** full synthesis+PD+ATPG iterations performed *)
  sat_queries : int;
      (** SAT queries spent across all classifications of the procedure
          (implement calls and internal-only checks) — the quantity carried
          verdicts save *)
  conflicts : int;
  decisions : int;
  propagations : int;
      (** solver effort of the campaign's SAT queries: deltas of the
          process-wide {!Dfm_sat.Solver.totals}.  Counting is
          unconditional, so the numbers are independent of any
          observability setting *)
  escalation_retries : int;   (** abort-budget escalation SAT queries *)
  aborted_residual : int;
      (** aborts surviving every escalation ladder of the run — reported,
          never silently dropped *)
}
(** A campaign's effort: the work actually done.  A candidate met again at
    an unchanged design point (the next q, the other phase) is answered
    from the campaign's memo and adds nothing; rebuilding the design of an
    accepted candidate whose facts were remembered adds its implement call
    and classification.  The record is journaled whole with every accepted
    step and restored whole on resume.  Like every count here it is the
    same at any [--jobs], and it is exact across a resume: the replay adds
    nothing, and the continuation starts from the empty memo the
    uninterrupted run had at that accept. *)

type result = {
  initial : Design.t;
  final : Design.t;
  trace : event list;      (** in chronological order *)
  accepted : int;          (** accepted resynthesis steps *)
  effort : effort;
  elapsed_s : float;
      (** wall-clock duration of the call; {!Report.table2_rows} turns it
          into Rtime *)
  resumed_steps : int;     (** accepted steps replayed from a checkpoint journal *)
  certified_checks : int;
      (** certificate checks performed during this call when [certify] was
          set (witness resimulations, replayed UNSAT proofs, model checks,
          equivalence certificates of accepted ECOs); 0 uncertified *)
  certified_failures : int;
      (** certificate checks that failed; a completed run always reports 0
          because a failure raises {!Dfm_sat.Cert.Check_failed} *)
}

type checkpoint_spec = {
  path : string;   (** journal file (see {!Checkpoint}) *)
  resume : bool;   (** continue from an existing journal vs. start fresh *)
}

val cells_by_internal_faults : Dfm_netlist.Library.t -> Dfm_netlist.Cell.t list
(** Combinational cells in decreasing order of internal fault count — the
    order in which the procedure considers exclusions. *)

val run :
  ?p1_percent:float ->
  ?q_max:int ->
  ?seed:int ->
  ?sweep:bool ->
  ?context_levels:int ->
  ?max_conflicts:int ->
  ?certify:bool ->
  ?checkpoint:checkpoint_spec ->
  ?interrupt:(unit -> unit) ->
  (* [?interrupt] is polled at every design-point boundary (each phase-loop
     iteration and each candidate evaluation).  Raising from it aborts the
     campaign there; the checkpoint journal is closed first, so a
     checkpointed campaign cancelled this way resumes from its last accept.
     The serve daemon implements job cancellation and wall-clock limits
     with this hook. *)
  Design.t ->
  result
(** [sweep] (default true) lets Synthesize() SAT-sweep the extracted
    subcircuit; [context_levels] (default 2) is how many levels of fanin
    context are added to C_sub − G_zero (see DESIGN.md §5).  Both exist so
    the design-choice ablations in the bench can quantify their effect.

    The campaign takes the initial design's verdicts as given: it never
    classifies that design again.  The CLI and the serve daemon implement
    it under the same [certify] as the campaign.

    Both classifications a candidate pays for, its internal-only
    pre-check and its [Design.implement], carry the current design point's
    Detected and Undetectable verdicts for the faults outside the remapped
    region ({!Carry}), built once per design point; only the rest is
    classified.  Under the default unbounded budget this changes no
    verdict, report or accept, only the effort counts.  Under
    [max_conflicts] a carried verdict may resolve a fault the bound would
    have aborted.

    Each accepted step (and a checkpoint resume) is logged as a
    {!Dfm_obs.Log} [Info] record.

    [max_conflicts] bounds every classification SAT query; aborted faults
    are retried on the geometric budget ladder of
    {!Dfm_atpg.Atpg.classify} and any residue is reported in
    [aborted_residual].

    [certify] (default false) verifies every verdict the campaign relies on
    against an independent certificate: each remapped region is proven
    equal to its remap ({!Carry.prove_region}) before verdicts are carried
    around it, each classification runs certified (see
    {!Dfm_atpg.Atpg.classify}), and every accepted ECO — fresh or replayed
    from a journal — must pass a checked SAT equivalence certificate
    against the design it replaces before the journal records it.  A
    failed check raises {!Dfm_sat.Cert.Check_failed}.  The final design,
    trace, [accepted] and [effort] are those of the uncertified run.

    [checkpoint] journals every design point to [path] ({!Checkpoint}),
    each accept with the region it remapped; a resume derives each accept
    again like a live one and refuses the journal with {!Checkpoint.Error}
    unless that gives the journaled netlist text.  Resumption contract:
    kill the process at any instant and re-run with [resume = true],
    certified or not — the completed campaign's final design, trace,
    [accepted] and [effort] are bit-identical to the uninterrupted run.  A
    journal written under a different configuration (netlist, seed, [p1],
    [q_max], …) is refused too. *)
