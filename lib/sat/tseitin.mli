(** Tseitin gate encoders on top of {!Solver}.

    Each function constrains an output literal to equal a Boolean function of
    input literals, using the standard equisatisfiable clause sets.  Literals
    are DIMACS integers as in {!Solver}.

    When [?act] is given, every emitted clause is guarded as [¬act ∨ C]:
    the encoding holds only while [act] is assumed, which is how per-query
    constraint groups share one solver (see {!Solver.retire}). *)

val const_true : ?act:int -> Solver.t -> int -> unit
val const_false : ?act:int -> Solver.t -> int -> unit

val not_ : ?act:int -> Solver.t -> out:int -> int -> unit

val and_ : ?act:int -> Solver.t -> out:int -> int list -> unit
(** [and_ s ~out ins] forces [out = AND ins].  [AND [] = true]. *)

val or_ : ?act:int -> Solver.t -> out:int -> int list -> unit
(** [or_ s ~out ins] forces [out = OR ins].  [OR [] = false]. *)

val xor_ : ?act:int -> Solver.t -> out:int -> int -> int -> unit
(** [xor_ s ~out a b] forces [out = a XOR b]. *)

val mux : ?act:int -> Solver.t -> out:int -> sel:int -> int -> int -> unit
(** [mux s ~out ~sel a b] forces [out = if sel then b else a]. *)

val of_truthtable :
  ?act:int -> Solver.t -> out:int -> int array -> Dfm_logic.Truthtable.t -> unit
(** [of_truthtable s ~out ins tt] forces [out = tt(ins)] by enumerating
    minterms and maxterms; suitable for functions of up to 6 inputs. *)
