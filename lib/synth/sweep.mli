(** SAT sweeping: semantic simplification of an AIG.

    Commercial logic synthesis removes redundancy the structural hash cannot
    see — nodes that are constant, or equivalent to another node (possibly
    complemented), given the whole extracted subcircuit.  This pass is what
    lets the resynthesis procedure *eliminate* undetectable faults rather
    than merely shuffle them between cell types: a cell whose activation
    condition is unsatisfiable within the subcircuit sits on provably
    redundant logic, and sweeping deletes that logic.

    Candidate equivalences are proposed by 512-pattern random simulation
    signatures and confirmed by SAT (a miter over the two cones); confirmed
    nodes are merged while rebuilding the graph. *)

val sweep :
  Aig.t ->
  outputs:(string * Aig.lit) list ->
  Aig.t * (string * Aig.lit) list
(** Returns a rebuilt AIG and the translated output literals.  Inputs keep
    their names; the result computes the same functions. *)
