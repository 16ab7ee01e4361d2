(** Bit-parallel (64 patterns per word) logic simulation.

    The controllable points of the netlist ({!Dfm_netlist.Netlist.input_nets}:
    primary inputs and flip-flop Q nets, full-scan style) are driven with one
    64-bit word each; each gate's compiled cell program
    ({!Dfm_netlist.Cell.t.prog}) propagates whole words in topological
    order. *)

type t

val prepare : Dfm_netlist.Netlist.t -> t

val netlist : t -> Dfm_netlist.Netlist.t

val inputs : t -> (string * int) list
(** Labels and net ids of the controllable points, in word order. *)

val observes : t -> (string * int) list
(** Labels and net ids of the observable points. *)

val random_words : t -> Dfm_util.Rng.t -> int64 array
(** One fresh random word per controllable point. *)

val words_of_pattern : bool array -> int64 array
(** Broadcast a single pattern to all 64 bit positions. *)

val pattern_of_words : int64 array -> int -> bool array
(** Extract bit position [b] of each word as one pattern. *)

type values = Words.t
(** The fault-free value word of every net, as computed by {!run}.  Abstract
    outside this library: an unboxed store that {!Fault_sim} reads in
    place. *)

val run : t -> int64 array -> values
(** [run t ins] simulates one block of 64 patterns ([ins] in {!inputs}
    order) into a fresh store. *)

val value : values -> int -> int64
(** [value v n] is the word of net [n]. *)

val topo : t -> int array
(** Cached topological order of combinational gates. *)
