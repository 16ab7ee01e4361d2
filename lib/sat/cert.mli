(** Certificates for solver verdicts, checked by an independent verifier.

    The solver ({!Solver.set_trace}) reports every clause it admits —
    originals verbatim and learnt clauses as they are derived — forming a
    DRUP-style derivation.  A certification session ({!t}) buffers that
    trace in memory and, before each verdict check, replays what it
    buffered into {!Check}, a deliberately dumb checker that shares no
    code or state with the solver: its only inference is unit propagation.
    Each learnt step is verified once at admission, so total checking work
    is linear in the proof regardless of how many verdicts are checked.

    Verdict checks raise {!Check_failed}; a failure means the solver, the
    trace, or the certificate storage is unsound and the run must not
    publish the verdict. *)

exception Check_failed of string

(** The independent RUP checker.  Usable standalone (the adversarial
    mutation tests drive it directly); normal engine code goes through the
    session API below. *)
module Check : sig
  type t

  val create : unit -> t

  val add_original : t -> int list -> unit
  (** Admit an axiom clause (trusted; it defines the formula). *)

  val add_learnt : t -> int list -> bool
  (** Verify that the clause is a unit-propagation (RUP) consequence of
      everything admitted so far, then admit it.  [false] = not implied;
      the clause is rejected and not admitted. *)

  val proved_unsat : t -> bool
  (** The admitted clauses propagate to a conflict unconditionally. *)

  val check_unsat : t -> assumptions:int list -> bool
  (** Do the admitted clauses plus the assumption units propagate to a
      conflict?  This is the verdict-level UNSAT check. *)

  val check_model : t -> assumptions:int list -> value:(int -> bool) -> bool
  (** Does the assignment satisfy every admitted {e original} clause and
      every assumption?  (Learnt clauses are consequences; they follow.) *)

  val num_clauses : t -> int
end

(** {1 Certification sessions} *)

type t

val create : Solver.t -> t
(** A fresh session (empty checker, empty proof buffer) installed as
    [solver]'s derivation tracer.  One session mirrors one solver
    instance. *)

val checker : t -> Check.t

val check_unsat : t -> assumptions:int list -> unit
(** Drain the buffered trace into the checker (RUP-verifying every learnt
    step) and verify that the assumptions propagate to a conflict.
    @raise Check_failed if any step or the final check fails. *)

val check_model : t -> assumptions:int list -> value:(int -> bool) -> unit
(** Drain, then verify the model against the original clauses and the
    assumptions.  @raise Check_failed on mismatch. *)

(** {1 Accounting} *)

type totals = { checked : int; failed : int; proof_bytes : int; check_ns : int }

val totals : unit -> totals
(** Process-wide counters, read from the metric counters
    [dfm_cert_checked_total], [dfm_cert_failed_total] and
    [dfm_cert_proof_bytes_total] and the sum of the [dfm_cert_check_ns]
    histogram.  [checked]/[failed] count verdict-level checks (one per
    certified verdict); [proof_bytes] is the nominal traced proof size.
    Like every effort count they are the same at any [--jobs]; [check_ns]
    accumulates only while [Metrics.timing_enabled]. *)

val note_check : ok:bool -> ns:int64 -> unit
(** Record an externally performed certificate check (witness
    resimulation, cache digest validation, equivalence certificates) in
    the same counters and metrics. *)
