(** Cut-based technology mapping of an AIG onto a standard-cell library.

    This is [Synthesize()] from the paper's resynthesis loop: it re-covers a
    subcircuit with an *allowed subset* of the library (the resynthesis
    procedure repeatedly excludes the cells with the most internal DFM
    faults).  K-feasible cuts (K = 4) are enumerated per node, each cut's
    local function is matched against the library — including pin-bridged
    matches (several pins tied to one leaf) and output-complemented matches
    (cell plus inverter) — and a covering is chosen by dynamic programming
    on (arrival time, area flow).

    Raising {!Unmappable} is the mapper's way of saying the allowed cells are
    *not sufficient* to synthesize the subcircuit — the eligibility condition
    (3) of Section III-B. *)

exception Unmappable of string

type table
(** Precomputed cut-function → cell match table for one library subset,
    together with that subset. *)

val build_table : Dfm_netlist.Library.t -> table

val library : table -> Dfm_netlist.Library.t
(** The cells the table's matches draw on; mapped netlists carry it. *)

val restrict : table -> excluded:string list -> table
(** [restrict t ~excluded] maps exactly like
    [build_table (Library.restrict (library t) ~excluded)]: same match
    lists in the same order, same inverter.  It is derived by dropping the
    excluded cells' matches, which costs a table copy instead of a full
    re-enumeration — the resynthesis loop derives each restricted table
    from the previous one, one excluded cell at a time. *)

val can_express_basics : table -> bool
(** Whether inversion and 2-input AND (in every polarity) are coverable —
    a cheap necessary screen before attempting a map. *)

val map :
  ?goal:[ `Delay | `Area ] ->
  table ->
  name:string ->
  Aig.t ->
  outputs:(string * Aig.lit) list ->
  Dfm_netlist.Netlist.t
(** Map the AIG onto [library table]; the result has one PI per AIG input
    (same names) and one PO per entry of [outputs].  [goal] selects the
    covering objective: [`Delay] (default) minimizes arrival first,
    [`Area] minimizes area flow first — the latter is what the
    resynthesis loop uses, since its delay/power budget is a constraint
    checked downstream rather than an objective.
    @raise Unmappable when some node cannot be covered with the allowed
    cells. *)
