(** User-defined fault model (UDFM) extraction.

    For every standard cell and every internal DFM-violation site, the
    defective cell is switch-level simulated over all input patterns.  The
    patterns on which the defective output deviates from the good output form
    the *activation set* of the resulting internal fault; a deviation to [VX]
    or [VZ] (contention / floating) is counted as a deviation, the usual
    pessimistic choice of cell-aware flows.  Sites whose defect never changes
    the output are benign and produce no fault.

    The flip-flop cell is not switch-simulated (its behaviour is sequential);
    its sites carry hand-modeled activation conditions on the D pin, and
    detection reduces to scan-path controllability of D (see [dfm_faults]). *)

type entry = {
  site : Defect.site;
  activation : int list;
      (** minterm indices over the cell inputs (pin order) that activate the
          defect, i.e. flip the cell output *)
  program : Dfm_logic.Wordprog.t;
      (** [activation] compiled once, for the fault simulator: the word of
          patterns on which the defect flips the output *)
}

type t = {
  cell_name : string;
  arity : int;
  entries : entry list;   (** one per non-benign site *)
  benign_sites : int;
}

val characterize : Osu018.model -> t
(** @raise Failure if the healthy network disagrees with the cell's declared
    truth table (a consistency bug in the catalog). *)

val all : unit -> t list
(** Characterization of the whole library, computed once and cached. *)

val for_cell : string -> t
(** Cached lookup.  @raise Not_found for unknown cells. *)

val internal_fault_count : string -> int
(** Number of internal faults one instance of the cell contributes — the
    quantity by which the paper orders library cells. *)

val preload : unit -> unit
(** Force the lazy characterization caches from the calling domain.  OCaml
    [lazy] blocks are not safe to force concurrently; callers that hand
    cells to {!Dfm_util.Parallel.run} tasks force them up front. *)
