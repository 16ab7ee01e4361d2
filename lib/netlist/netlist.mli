(** Gate-level netlists over a standard-cell {!Library}.

    A netlist is a DAG of single-output cell instances ("gates") connected by
    single-driver nets, with named primary inputs and outputs.  Sequential
    cells (D flip-flops, [Cell.is_seq]) are handled in the full-scan style the
    paper assumes: for every analysis (simulation, ATPG, fault modeling) a
    flip-flop's Q output net is a controllable pseudo-primary input and its D
    input net is an observable pseudo-primary output.  Clock distribution is
    not modeled (see DESIGN.md).

    Netlists are immutable; the resynthesis procedure rewrites regions with
    {!extract} / {!replace}, which produce fresh netlists. *)

type driver =
  | Pi of int        (** index into [pis] *)
  | Gate_out of int  (** gate id *)
  | Const of bool

type net = {
  net_id : int;
  net_name : string;
  driver : driver;
  sinks : (int * int) list;  (** (gate id, input pin index) pairs *)
}

type gate = {
  gate_id : int;
  gate_name : string;
  cell : Cell.t;
  fanins : int array;  (** net ids in cell pin order *)
  fanout : int;        (** the net this gate drives *)
}

type t = {
  name : string;
  library : Library.t;
  pis : (string * int) array;  (** (port name, net id) *)
  pos : (string * int) array;
  gates : gate array;
  nets : net array;
}

(** {1 Construction} *)

module Builder : sig
  type b

  val create : name:string -> Library.t -> b

  val add_pi : b -> string -> int
  (** Returns the net id of the new primary-input net. *)

  val const_net : b -> bool -> int
  (** A constant-0 or constant-1 net (shared per polarity). *)

  val add_gate : b -> ?name:string -> cell:string -> int array -> int
  (** [add_gate b ~cell fanins] instantiates library cell [cell] with the
      given fanin nets (pin order) and returns the id of the net it drives.
      @raise Invalid_argument if the cell is not in the library (the message
      names the cell and the netlist) or on a pin-count mismatch. *)

  val declare_net : b -> string -> int
  (** A net whose driver will be supplied later with {!add_gate_driving}.
      Needed to close sequential feedback loops (flip-flop Q feeding logic
      that computes its own D). *)

  val add_gate_driving : b -> ?name:string -> cell:string -> int array -> int -> unit
  (** Like {!add_gate} but drives a previously declared net. *)

  val mark_po : b -> string -> int -> unit
  (** Declare a net as a primary output under a port name. *)

  val finish : b -> t
  (** Freeze, compute sinks, and {!validate} the result. *)
end

(** {1 Accessors} *)

val num_gates : t -> int
val num_nets : t -> int
val gate : t -> int -> gate
val net : t -> int -> net

val comb_gates : t -> gate list
val seq_gates : t -> gate list

val input_nets : t -> (string * int) list
(** Controllable nets: primary inputs then flip-flop Q nets, with labels. *)

val observe_nets : t -> (string * int) list
(** Observable nets: primary outputs then flip-flop D nets, with labels. *)

val topo_order : t -> int array
(** Combinational gates in topological order (fanins before fanouts);
    flip-flop Q nets are sources, flip-flop gates are excluded.
    @raise Failure on a combinational cycle. *)

val gate_levels : t -> int array
(** Per-gate logic level (0 = fed only by sources); flip-flops get level 0. *)

val fanin_gates : t -> int -> int list
(** Gates driving the fanin nets of a gate. *)

val adjacent_gates : t -> int -> int list
(** Structural adjacency of Section II of the paper: gates directly driving
    or directly driven by the given gate. *)

val total_area : t -> float
val cell_counts : t -> (string * int) list
(** Instances per cell name, sorted by name. *)

val validate : t -> unit
(** Internal-consistency checks (single drivers, sink lists match fanins,
    pin counts, acyclicity).  @raise Failure with a description on error. *)

(** {1 Region rewriting for resynthesis} *)

type boundary = {
  in_nets : (string * int) list;   (** sub PI port -> parent net id *)
  out_nets : (string * int) list;  (** sub PO port -> parent net id *)
}

val extract : t -> gates:int list -> t * boundary
(** [extract t ~gates] carves the given combinational gates out as a
    standalone netlist whose PIs/POs are the boundary nets.
    @raise Invalid_argument if a listed gate is sequential. *)

val replace : t -> gates:int list -> sub:t -> boundary -> t
(** [replace t ~gates ~sub boundary] removes [gates] and splices in [sub]
    (any netlist with the same boundary port names, e.g. the remapped
    extract).  Nets formerly driven by removed gates are reconnected to the
    corresponding sub outputs. *)

val pp_summary : Format.formatter -> t -> unit
