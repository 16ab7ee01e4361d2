(** The incremental-analysis façade the engine threads through a
    classification: cone signatures in front of one verdict {!Store}.

    Correctness invariant (enforced by the property tests, relied on by
    [Atpg.classify]): for any netlist and any warm or cold cache state,
    classification with a cache is bit-identical to the uncached run — the
    cache may only skip work, never change a verdict.  This holds because
    only semantic verdicts are stored ([Store.verdict] has no [Aborted]),
    keys are full cone signatures with the ATPG parameters mixed in
    ([Signature.params]), and lookups happen in the classify coordinator,
    never in a SAT-phase task.

    A cache is single-domain, like the coordinator that owns it. *)

type t

val create : ?dir:string -> ?log:(string -> unit) -> unit -> t
(** [dir] enables the on-disk tier in [dir ^ "/verdicts.bin"], creating the
    directory when needed; corrupted files are recovered best-effort (see
    {!Store.create}).  Without [dir] the cache is memory-only. *)

val signatures :
  ?max_conflicts:int -> Dfm_netlist.Netlist.t -> Dfm_faults.Fault.t array -> int64 array
(** Cone signatures of the given faults, from one {!Signature.sweep} of
    the netlist per call. *)

val find : t -> int64 -> Store.verdict option

val find_certified : t -> int64 -> Store.verdict option
(** Only entries published certified and whose disk certificate mark
    validated; see {!Store.find_certified}. *)

val record : ?certified:bool -> t -> int64 -> Store.verdict -> unit

val stats : t -> Store.stats

val hit_rate : t -> float

val close : t -> unit
