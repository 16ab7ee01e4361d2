(** Power estimation: switching (dynamic) power from simulated toggle
    activity on the routed loads, plus cell leakage.  Absolute units are
    nominal (mW at 1.8 V, 100 MHz); the resynthesis procedure only ever
    compares a design against the original, as the paper does. *)

type report = {
  dynamic : float;  (** mW *)
  leakage : float;  (** mW *)
  total : float;
}

val analyze : ?seed:int -> Dfm_layout.Route.t -> report
(** Eight 64-pattern simulation blocks estimate per-net toggle activity. *)
