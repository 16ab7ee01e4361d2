(** Straight-line word programs: the compiled form of a truth table.

    A program evaluates a Boolean function of up to 6 inputs on 64-pattern
    words, one bit-parallel operation per instruction.  Inputs sit in
    registers [0 .. arity-1]; each instruction writes one fresh register;
    the result is register [out].  Programs are built once per function by
    Shannon expansion with shared cofactors, so evaluating a cell costs a
    handful of word operations instead of the [2^k * k] of minterm
    expansion.

    Both simulators run programs through {!exec}: fault-free simulation
    with a cell's function, fault simulation with the same program plus the
    activation programs of the cell's internal (UDFM) faults. *)

type t = private {
  arity : int;
  code : int array;
      (** one packed instruction per entry: opcode in bits 0-2,
          destination register in bits 3-10, operands in bits 11-18 and
          19-26 *)
  out : int;  (** register holding the result after {!exec} *)
}

type regs = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A register file of 256 words. *)

val create_regs : unit -> regs
(** A zeroed register file. *)

val compile : Truthtable.t -> t
(** The shortest program found over the input orders tried (every order
    for arity up to 4).  Deterministic. *)

val of_minterms : arity:int -> int list -> t
(** [compile] of the function that is 1 exactly on the given minterm
    indices (bit [k] of an index is input [k]). *)

val exec : t -> regs -> unit
(** Run the program on a register file whose registers [0 .. arity-1] hold
    the input words; leaves the result in register [out].
    @raise Invalid_argument if the register file is smaller than 256
    words. *)

val eval : t -> int64 array -> int64
(** [exec] on a fresh register file loaded with the given input words.
    Convenience for tests; allocates. *)
