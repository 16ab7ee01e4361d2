(** Static timing analysis over a placed-and-routed design.

    Lumped linear delay model: a gate's delay is its intrinsic delay plus
    its drive resistance times the load (sink pin capacitances plus routed
    wire capacitance).  Launch points are primary inputs and flip-flop Q
    pins at t = 0; capture points are primary outputs and flip-flop D pins.
    The critical-path delay is the quantity the paper constrains to at most
    [q]% above the original design. *)

type report = {
  critical_path_delay : float;  (** ns *)
  worst_endpoint : string;      (** label of the worst capture point *)
  net_arrival : float array;    (** arrival time per net id, ns *)
  net_load : float array;       (** capacitive load per net id, pF *)
}

val net_load_of : Dfm_layout.Route.t -> float array
(** Capacitive load per net (sink pin caps + routed wire cap). *)

val analyze : Dfm_layout.Route.t -> report

val endpoint_arrivals : Dfm_layout.Route.t -> report -> (string * float) list
