(** Layout geometry primitives shared by placement, routing and the DFM
    guideline scanner.  Dimensions are in micrometers of the modeled 0.18um
    process. *)

type point = { x : float; y : float }

type rect = { lx : float; ly : float; hx : float; hy : float }

val rect_width : rect -> float
val rect_height : rect -> float
val rect_area : rect -> float
val contains : rect -> point -> bool
val overlap : rect -> rect -> bool

type layer = M1 | M2 | M3
(** M1: intra-cell / pin hookups (horizontal); M2: vertical routing;
    M3: horizontal routing. *)

type segment = {
  seg_net : int;       (** net id *)
  seg_layer : layer;
  seg_a : point;
  seg_b : point;       (** axis-parallel: a.x = b.x or a.y = b.y *)
  seg_width : float;
}

val segment_length : segment -> float

type via = {
  via_net : int;
  via_at : point;
  via_lower : layer;   (** connects [via_lower] to the layer above *)
  via_redundant : bool; (** doubled via (immune to single-via opens) *)
  via_sink : (int * int) option;
      (** the (gate, pin) this via serves when it sits on a branch to one
          specific sink; [None] for driver-side and pad vias *)
}

val dist : point -> point -> float

val segments_parallel_gap : segment -> segment -> float option
(** For two parallel same-layer segments whose spans overlap, their
    edge-to-edge distance; [None] otherwise. *)
