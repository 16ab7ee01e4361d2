(** Gate-level fault models for DFM-predicted systematic defects.

    Following Section II of the paper, violations of DFM guidelines are
    translated into likely shorts and opens inside and outside cells, and
    those into stuck-at faults, transition faults, bridging faults and
    cell-aware faults modeled by UDFM.  A fault is *internal* when it is
    inside a standard cell (UDFM) and *external* otherwise.

    Detection semantics (used consistently by the fault simulator and the
    SAT ATPG):
    - stuck-at: classic single-fault D-propagation to an observable point;
    - transition: enhanced-scan two-frame — the site must be controllable to
      the initial value in frame 1, and the corresponding stuck-at must be
      detectable in frame 2;
    - bridging: wired-AND / wired-OR of the two bridged nets, both nets take
      the resolved value, difference must reach an observable point;
    - internal (UDFM): the cell's inputs must match one of the activation
      patterns and the resulting output flip must reach an observable point.
      For flip-flop internal faults the activation is over the D net and the
      flip is observed directly on the scan path. *)

type polarity = Sa0 | Sa1

type transition = Slow_to_rise | Slow_to_fall

type bridge_kind = Wired_and | Wired_or

type site_loc =
  | On_net of int
      (** on a net, at its driver: affects every sink *)
  | On_pin of int * int
      (** (gate, input-pin index): affects only that gate input *)

type kind =
  | Stuck of site_loc * polarity
  | Transition of site_loc * transition
  | Bridge of int * int * bridge_kind  (** two distinct net ids *)
  | Internal of int * int
      (** (gate id, UDFM entry index into [Udfm.for_cell]) *)

type origin = {
  category : Dfm_cellmodel.Defect.category;
  guideline_index : int;
}
(** The DFM guideline whose violation predicted this fault. *)

type t = {
  fault_id : int;  (** dense within one fault list *)
  kind : kind;
  origin : origin;
}

val is_internal : t -> bool

val corresponding_gates : Dfm_netlist.Netlist.t -> t -> int list
(** The gates that correspond to the fault in the sense of Section II: the
    single host gate of an internal fault; driver and sink gates of the
    net(s) an external fault sits on. *)

val describe : Dfm_netlist.Netlist.t -> t -> string

val same_kind : kind -> kind -> bool
