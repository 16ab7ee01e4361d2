(** Metal-density analysis over fixed windows.

    The die is divided into square windows and the routed metal area per
    layer is accumulated per window.  Foundry DFM guidelines recommend a
    density band per layer; windows below it risk dishing during CMP and
    windows above it risk shorts — the Density guideline category of the
    paper's Section IV. *)

type window = {
  win : Geom.rect;
  density : (Geom.layer * float) list;  (** metal area / window area *)
}

type t = {
  windows : window array;  (** window [(ix, iy)] at index [ix * ny + iy] *)
  window_size : float;
  nx : int;  (** grid columns *)
  ny : int;  (** grid rows *)
}

val analyze : Route.t -> t
(** Windows of 12 um, shrunk so there are at least 2x2 of them. *)

val window_nets : t -> Route.t -> int list array
(** For each window of [t] (same index), the nets with routed geometry
    overlapping it ([Geom.overlap] with {!Route.seg_bbox}), ascending and
    without duplicates.  One pass over the segments of the routing [t] was
    analyzed from. *)

val low_threshold : float
val high_threshold : float
