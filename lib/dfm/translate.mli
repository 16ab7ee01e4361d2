(** Scanning a routed layout for DFM guideline violations and translating
    them into the gate-level fault list [F] of Section II.

    Internal faults: every cell instance contributes one UDFM fault per
    non-benign internal violation site of its cell type (switch-level
    characterized in [dfm_cellmodel]).

    External faults: layout scanning finds
    - non-redundant vias in risky contexts (Via guidelines) → open risk →
      stuck-at and transition faults on the served pin or whole net;
    - sub-recommended wire widths (Metal) → resistive-open risk →
      transition faults (and stuck-ats for severe cases);
    - tight parallel spacing (Metal) → short risk → wired-AND/OR bridging
      faults between the two nets (feedback pairs are skipped);
    - out-of-band window densities (Density) → opens (low) or bridges
      (high) on the nets crossing the window. *)

type violation = {
  guideline : Guideline.t;
  at : Dfm_layout.Geom.point;
  nets : int list;          (** nets implicated *)
  fault_ids : int list;     (** faults this violation contributed *)
}

type t = {
  faults : Dfm_faults.Fault.t array;
  violations : violation list;
  n_internal : int;
  n_external : int;
}

val build : Dfm_layout.Route.t -> t
(** Deterministic: same layout, same fault list (fault ids included). *)

val internal_only : Dfm_netlist.Netlist.t -> Dfm_faults.Fault.t array
(** Just the internal (UDFM) faults of a netlist, no layout needed.  Internal
    faults do not depend on placement and routing, which is why the paper
    calls [PDesign()] only after their undetectable count already decreased —
    this fault list supports exactly that pre-physical-design check. *)
