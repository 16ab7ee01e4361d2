(** Structural motifs for the synthetic benchmark circuits.

    The original benchmarks (OpenCores blocks, OpenSPARC T1 units) are not
    available in this environment, so each is rebuilt from the structural
    ingredients that give the paper's phenomenon — clusters of undetectable
    DFM faults — a chance to arise *organically*:

    - one-hot decoders create correlated control lines; cells combining
      several of them have cell-input patterns that no test can establish,
      so their internal (UDFM) faults are undetectable and cluster in the
      fanout region of the decoder;
    - reconvergent structures (parity trees, bypass muxes) create masking;
    - ordinary datapath logic (adders, shifters, S-boxes) provides the
      well-testable bulk.

    All helpers operate on an open {!Dfm_netlist.Netlist.Builder} and return
    net ids.  Everything is deterministic given the RNG. *)

type ctx = {
  b : Dfm_netlist.Netlist.Builder.b;
  rng : Dfm_util.Rng.t;
  mutable state_banks : int;  (** serial for unique state-net names *)
}

val make : name:string -> seed:int -> ctx
(** Fresh builder over the OSU-018 library. *)

val pis : ctx -> string -> int -> int list
(** [pis ctx prefix n] adds [n] primary inputs named [prefix0..]. *)

val pos : ctx -> string -> int list -> unit
(** Mark nets as primary outputs. *)

(** {1 Logic constructors} *)

val inv : ctx -> int -> int
val and2 : ctx -> int -> int -> int
val or2 : ctx -> int -> int -> int
val xor2 : ctx -> int -> int -> int
val mux2 : ctx -> sel:int -> int -> int -> int
(** [mux2 ~sel a b] = if sel then b else a. *)

val xor_tree : ctx -> int list -> int
val and_tree : ctx -> int list -> int
val or_tree : ctx -> int list -> int

(** {1 Datapath motifs} *)

val ripple_adder : ctx -> int list -> int list -> cin:int -> int list * int
(** Bitwise ripple-carry adder; returns (sum bits, carry out). *)

val incrementer : ctx -> int list -> int list
val equality : ctx -> int list -> int list -> int
val mux_word : ctx -> sel:int -> int list -> int list -> int list
val barrel_shift : ctx -> int list -> sel:int list -> int list
(** Logarithmic rotator (rotate amount = selected bits). *)

val sbox : ctx -> int list -> int -> int list
(** [sbox ctx ins n_out] synthesizes a random dense lookup function of the
    inputs (at most 6 used per output) through the technology mapper,
    splicing real mapped cells into the circuit. *)

(** {1 Control motifs} *)

val decoder : ctx -> int list -> int list
(** Full one-hot decode of the select bits (2^k outputs). *)

val priority_encoder : ctx -> int list -> int list
(** [priority_encoder reqs] returns one-hot grants (highest index wins). *)

val onehot_cloud : ctx -> hot:int list -> data:int list -> int -> int list
(** A cloud of [n] random gates whose fanins are biased toward the mutually
    exclusive [hot] lines — the redundancy-rich region where undetectable
    internal faults cluster. *)

val random_cloud : ctx -> int list -> int -> int list
(** [n] random gates over arbitrary available nets (well-testable filler). *)

(** {1 State} *)

val register : ctx -> ?enable:int -> int list -> int list
(** One flip-flop per data bit (with an optional recirculating enable mux);
    returns the Q nets. *)

val state_feedback : ctx -> int -> (int list -> int list) -> int list
(** [state_feedback ctx n f] creates [n] flip-flops whose next state is
    [f qs]; returns the Q nets.  [f] must produce [n] nets. *)

val finish : ctx -> Dfm_netlist.Netlist.t
