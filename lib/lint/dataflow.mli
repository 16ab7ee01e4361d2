(** Tier-B sound dataflow analysis: three-valued constant propagation plus
    structural observability, the facts behind the lint rules L010
    (unobservable gate output) and L011 (net proven constant).

    Constants originate at [Const] drivers and at gates whose function
    degenerates.  On top of the three-valued pass the analysis keeps, per
    net, the {e exact} function over the free root variables (primary
    inputs and flip-flop Q nets) while its support stays within 6 roots: an
    exhaustive sweep over their assignments proves constants that
    three-valued propagation alone misses, such as [XOR(a, a) = 0] or
    [NAND(a, NOT a) = 1].

    The analysis is sound, never complete: a net reported constant is
    constant under every input assignment, and a net reported unable to
    reach an observable point has no combinational path to one.  Proving a
    fault undetectable is left to the SAT query of {!Dfm_atpg.Encode}. *)

type value = V0 | V1 | VX

type t

val analyze : Dfm_netlist.Netlist.t -> t
(** One topological pass of three-valued constant propagation plus a reverse
    pass of structural observability.  The netlist must be valid (as after
    {!Dfm_netlist.Netlist.Builder.finish}); @raise Failure on a
    combinational cycle. *)

val value : t -> int -> value
(** Proven three-valued value of a net. *)

val proven_constants : t -> (int * bool) list
(** Nets proven constant, in net-id order. *)

val observable : t -> int -> bool
(** Whether the net is itself a PO or flip-flop D net. *)

val reaches_observable : t -> int -> bool
(** Whether the net has a structural combinational path to an observable
    net (ignoring sensitization — an over-approximation of detectability,
    used by the Tier-A rule L010). *)
