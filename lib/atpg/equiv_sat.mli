(** SAT-based combinational equivalence checking of two netlists.

    Scales to the full benchmark blocks where the BDD checker the tests
    cross-check it against may blow up: a miter is built with the
    controllable points shared by label and a difference required at some
    observable point; UNSAT proves equivalence.  This is the check the
    resynthesis flow and the benches use to confirm that rewriting never
    changed circuit function. *)

type verdict =
  | Equivalent
  | Different of string  (** label of a differing observable point *)
  | Interface_mismatch of string

val check :
  ?certify:bool ->
  ?counted:bool ->
  Dfm_netlist.Netlist.t ->
  Dfm_netlist.Netlist.t ->
  verdict
(** [certify] (default [false]) replays each per-label equivalence proof
    (UNSAT) or distinguishing assignment (SAT) through the independent
    {!Dfm_sat.Cert.Check} verifier; a discrepancy raises
    {!Dfm_sat.Cert.Check_failed} instead of returning an unverified
    verdict.  [counted] (default [true]) is handed to the underlying
    solver; verification-only checks pass [~counted:false] so their search
    effort stays out of the process-wide {!Dfm_sat.Solver.totals} and a
    certified campaign reports the same solver effort as an uncertified
    one. *)
