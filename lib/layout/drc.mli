(** Design-rule checking.

    Design *rules* are the hard legality constraints (unlike DFM
    *guidelines*, which are recommendations — Section I of the paper).  The
    paper reports that every resynthesized layout closed "within the
    original floorplans without design rule violations"; this checker
    establishes the same property for the layouts produced here.

    Rules checked as errors:
    - R1: every metal segment at least the minimum width (0.22 um);
    - R2: all routed geometry inside the die;
    - R3: standard cells inside their rows, non-overlapping (placement
      legality);
    - R4: every via sits on routed geometry of its own net;
    - R5: a net's segments are electrically connected to its pins.

    Same-track crossings between nets are inherent to the global-routing
    abstraction (a detailed router would assign distinct tracks) and are
    reported as warnings, not errors. *)

type severity = Error | Warning

type violation = {
  rule : string;         (** e.g. ["R1-min-width"] *)
  severity : severity;
  at : Geom.point;
  detail : string;
}

type report = {
  violations : violation list;
  errors : int;
  warnings : int;
}

val check : Route.t -> report

val clean : report -> bool
(** No errors (warnings allowed). *)
