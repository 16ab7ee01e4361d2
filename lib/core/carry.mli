(** Verdicts a remapped candidate inherits from the design point it was
    remapped from.

    [Synthesize()] rewrites only the region [C_sub]: the sweep merges only
    equivalences proven over the region's own inputs and the mapper is
    exact, so the remapped region computes the same boundary functions as
    the region it replaces, for every value of its inputs.  A fault whose
    every site lies outside the region therefore has the same faulty
    circuit, up to that equal-function block, in the parent and in the
    candidate, and so the same detectability.  Such a fault takes the
    parent's verdict; {!prove_region} proves the premise for one remap.

    Sites are matched by name, because [Netlist.replace] keeps the names of
    the nets it keeps and the canonical text roundtrip renumbers every id:
    - a candidate gate is {e kept} when the parent net named like its output
      net is driven by a parent gate outside the region with the same cell
      (gates reading region outputs included: the boundary functions are
      unchanged);
    - a candidate net is kept when it is a primary input or a kept gate
      drives it.

    A fault carries the parent's Detected or Undetectable verdict for the
    same fault when every site it names is kept: the gate of an internal or
    a pin fault, the net of a whole-net fault, both nets of a bridge (in
    either order).  Everything else is left to classification: faults in or
    driven by the region, faults new to the layout, and faults the parent
    left [Aborted].  A name shared by two parent nets, or one the text
    roundtrip had to disambiguate in the candidate ([x~17]), identifies
    neither net and keeps nothing. *)

type t
(** One design point's verdicts, indexed by fault site. *)

val index : Design.t -> t
(** Build the index once per design point: net names, each gate's first
    internal fault id, and the verdict of each external fault kind. *)

val prove_region : sub:Dfm_netlist.Netlist.t -> Dfm_netlist.Netlist.t -> unit
(** [prove_region ~sub mapped] proves the extracted region [sub] equal to
    its remap [mapped] (same boundary names) with a certified, uncounted
    {!Dfm_atpg.Equiv_sat.check}: the certificate of every verdict carried
    around the region.  @raise Dfm_sat.Cert.Check_failed otherwise. *)

val known :
  t ->
  region:int list ->
  Dfm_netlist.Netlist.t ->
  Dfm_faults.Fault.t array ->
  Dfm_atpg.Atpg.status option array
(** [known ix ~region nl faults]: for each fault of [nl], a candidate that
    remapped the parent gates [region] of [ix]'s design point, the
    parent's verdict when the fault carries one ([None] otherwise) — the
    [known] argument of {!Dfm_atpg.Atpg.classify}. *)
