(** Row-based standard-cell placement inside a fixed floorplan.

    A breadth-first seeded initial placement (logic levels map to columns, so
    connected gates start near each other) is refined by simulated annealing
    on total half-perimeter wirelength (HPWL).  Placement fails — as the
    paper's [PDesign()] can — when the netlist's cell area no longer fits
    the frozen floorplan. *)

exception Does_not_fit of string

type pins
(** The pins of every net of a placed netlist: its driver and sink gates
    and its fixed pads.  Built once per placement. *)

type t = {
  fp : Floorplan.t;
  nl : Dfm_netlist.Netlist.t;
  row_of : int array;     (** gate id -> row index *)
  x_of : float array;     (** gate id -> left edge *)
  pin_of_pi : Geom.point array;  (** PI pad locations (west edge) *)
  pin_of_po : Geom.point array;  (** PO pad locations (east edge) *)
  pins : pins;
}

val place :
  ?seed:int -> ?sa_moves:int -> ?previous:t -> Dfm_netlist.Netlist.t -> Floorplan.t -> t
(** @raise Does_not_fit when the area constraint is violated.

    With [previous], placement is incremental (ECO style): gates present in
    the previous placement (matched by instance name) stay in their row and
    relative order, only the gates introduced by resynthesis are placed into
    the rows with the most slack, and no annealing is run.  This mirrors how
    the paper's [PDesign()] preserves the floorplan and disturbs the layout
    as little as possible. *)

val gate_center : t -> int -> Geom.point

val net_pads : t -> int -> int array
(** The PO pads of a net, as ascending indices into [pin_of_po]. *)

val net_pins : t -> int -> Geom.point list
(** All pin locations of a net (driver output, sink inputs, pads). *)

val total_hpwl : t -> float

val check_legal : t -> unit
(** @raise Failure if any row overflows or cells overlap. *)
