(** Bridges between netlists and AIGs, and the resynthesis entry points.

    [remap_region] is the paper's [Synthesize()] call: extract the subcircuit
    [C_sub], decompose it to an AIG, re-cover it with the *allowed* cells
    only, and splice the result back.  [remap_full] re-synthesizes the whole
    combinational cloud (used by the restricted-library ablation of
    Section IV); flip-flops are preserved in place. *)

val shannon_lit : Aig.t -> Dfm_logic.Truthtable.t -> Aig.lit array -> Aig.lit
(** [shannon_lit aig tt lits] builds [tt] over [lits] (variable [k] is
    [lits.(k)]) by Shannon expansion on the first support variable. *)

val to_aig : Dfm_netlist.Netlist.t -> Aig.t * (string * Aig.lit) list
(** Decompose a purely combinational netlist.  AIG inputs are named after
    the netlist's PI ports; the returned association lists PO port names to
    output literals.  Each cell function is built as the smallest of its
    Shannon, SOP and complemented-SOP covers, chosen once per cell.
    @raise Invalid_argument on sequential gates. *)

val remap :
  ?goal:[ `Delay | `Area ] ->
  ?sweep:bool ->
  Dfm_netlist.Netlist.t ->
  table:Mapper.table ->
  Dfm_netlist.Netlist.t
(** Decompose, SAT-sweep (unless [sweep:false]) and re-map a combinational
    netlist onto [Mapper.library table] (same PI/PO names).
    @raise Mapper.Unmappable if the cells are not sufficient. *)

val remap_region :
  ?goal:[ `Delay | `Area ] ->
  ?sweep:bool ->
  Dfm_netlist.Netlist.t ->
  gates:int list ->
  table:Mapper.table ->
  Dfm_netlist.Netlist.t
(** Re-synthesize only the given combinational gates with the allowed cells,
    leaving the rest of the circuit untouched. *)

val remap_full : Dfm_netlist.Netlist.t -> table:Mapper.table -> Dfm_netlist.Netlist.t
(** Re-synthesize the entire combinational cloud, delay-oriented and
    swept. *)
