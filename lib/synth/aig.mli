(** And-inverter graphs with structural hashing.

    The technology-independent intermediate representation of the synthesis
    substrate: [Synthesize()] in the paper decomposes the subcircuit under
    rewrite into an AIG and re-covers it with the allowed standard cells.

    Literals pack a node id and a complement bit ([2*node + c]); node 0 is
    the constant-false node, so literal 0 is false and literal 1 is true.
    Construction is hash-consed with the usual simplifications
    (x∧0=0, x∧1=x, x∧x=x, x∧¬x=0). *)

type t

type lit = int

val create : unit -> t

val lit_false : lit
val lit_true : lit

val input : t -> string -> lit
(** A fresh named primary input (one node per distinct name). *)

val and_ : t -> lit -> lit -> lit
val not_ : lit -> lit
val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux : t -> sel:lit -> lit -> lit -> lit
(** [mux t ~sel a b] is [if sel then b else a]. *)

val and_list : t -> lit list -> lit
val or_list : t -> lit list -> lit

val num_nodes : t -> int
(** Total nodes including the constant and inputs. *)

val inputs : t -> (string * lit) list
(** In creation order. *)

(** {1 Structural access (for the mapper)} *)

val node_of_lit : lit -> int
val is_complemented : lit -> bool
val mk_lit : int -> bool -> lit

type node_kind =
  | Const0
  | Input of string
  | And of lit * lit

val kind : t -> int -> node_kind

val eval : t -> (string -> bool) -> lit -> bool
(** Evaluate a literal under an input assignment (for tests). *)
