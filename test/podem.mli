(** PODEM: path-oriented decision making, the classic structural ATPG.

    An independent second engine for single stuck-at faults, used to
    cross-check the SAT-based [Dfm_atpg.Encode] (the two must agree on
    detectable/undetectable for every fault; the property tests enforce it).
    The implementation is a textbook PODEM over a (good, faulty) pair of
    three-valued simulations: objectives are backtraced through X-paths to a
    primary-input assignment, implications are recomputed by full 3-valued
    resimulation, and exhausting the PI decision tree proves redundancy. *)

type verdict =
  | Test of bool array
      (** a detecting pattern over {!Dfm_sim.Logic_sim.inputs} order *)
  | Redundant
  | Aborted  (** backtrack limit exceeded *)

val check :
  ?max_backtracks:int ->
  Dfm_sim.Logic_sim.t ->
  Dfm_faults.Fault.t ->
  verdict
(** Only [Stuck] faults are supported (PODEM's classic domain).
    @raise Invalid_argument for other fault kinds.
    Default backtrack limit: 10_000. *)
