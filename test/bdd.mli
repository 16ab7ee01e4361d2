(** Reduced ordered binary decision diagrams with a per-manager unique table.

    Used to check functional equivalence of small-to-medium subcircuits —
    e.g. that technology mapping and resynthesis preserve the function of the
    subcircuit they rewrite — independently of the SAT-based miter check. *)

type man
(** A BDD manager: unique table + operation cache. *)

type t
(** A node in a manager.  Nodes from different managers must not be mixed. *)

val man : unit -> man
(** Fresh manager.  Variable order is the natural order of variable indices. *)

val zero : man -> t
val one : man -> t
val var : man -> int -> t

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val bite : man -> t -> t -> t -> t
(** [bite m c a b] is if-then-else. *)

val equal : t -> t -> bool
(** Canonicity makes equivalence a constant-time identity check. *)

val is_zero : t -> bool
val is_one : t -> bool

val size : man -> t -> int
(** Number of distinct internal nodes reachable from a root. *)

val sat_one : man -> t -> (int * bool) list option
(** A satisfying partial assignment (variable, value) if one exists. *)

val of_truthtable : man -> Dfm_logic.Truthtable.t -> t
(** Build the BDD of a truth table over variables [0 .. arity-1]. *)
