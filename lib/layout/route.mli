(** Global routing: star-topology L-shaped routes over three metal layers.

    Each net is routed from its driver pin to every sink pin with a vertical
    M2 run and a horizontal M3 run, with via (stacks) at the driver, the
    bend, and the sink.  The router models the usual manufacturing-closure
    compromises that DFM guidelines exist to discourage: in tighter spots it
    uses sub-recommended wire widths and single (non-redundant) vias; the
    guideline scanner in [dfm_guidelines] then finds exactly those spots. *)

type t = {
  place : Place.t;
  segments : Geom.segment array;
  vias : Geom.via array;
  net_length : float array;  (** routed length per net id *)
}

val route : ?seed:int -> Place.t -> t

val total_wirelength : t -> float

val seg_bbox : Geom.segment -> Geom.rect
(** The rectangle a segment is taken to cover: its x extent, and its y
    extent widened by half the wire width on each side.  Density windows
    attribute their nets by overlap with it. *)
