(** Content-addressed fault-verdict store: signature → verdict.

    Only semantic verdicts are storable: {!verdict} has no [Aborted] case,
    because an abort is a property of one solver run (budget, variable
    order), not of the fault — caching it could change a later campaign's
    outcome, which the correctness invariant forbids.

    Two tiers.  The in-memory tier is a bounded hash table with FIFO
    eviction.  The optional on-disk tier is a {!Dfm_util.Journal} (magic
    [DFMVC02]; its format, loading and compaction rules are described
    there): every {!add} buffers one record, and {!create} keeps every
    intact record of the file, compacting away the damaged ones before new
    appends.  Loading never raises.

    Entries published by a certified campaign ([add ~certified:true]) carry
    a certificate mark on disk — a keyed digest over the signature and the
    verdict, recomputed and compared on load.  {!find_certified} returns
    only such validated entries; a corrupted mark drops the record at load
    time, so a damaged certified entry degrades to a recompute, never to a
    wrongly trusted verdict.

    Disk-tier failures (ENOSPC, EACCES, torn writes — chaos-tested through
    the [store.append] and [store.enospc] failpoints) degrade the store to
    memory-only with a single logged warning and the [dfm_store_degraded]
    gauge set; they never raise out of a campaign.

    The engine consults the store from its coordinating domain only (see
    [Atpg.classify]), never from workers.  Every public entry point is
    nonetheless serialized by an internal mutex: the serve daemon reads
    {!stats} from its network thread for status/metrics replies while the
    executor thread runs jobs, and those cross-thread reads must see
    consistent counters.  The mutex is uncontended in one-shot runs. *)

type verdict = Detected | Undetectable

type stats = {
  hits : int;
  misses : int;
  stores : int;        (** entries added (after dedup) *)
  evictions : int;
  disk_loaded : int;   (** records adopted from the disk tier at open *)
  disk_dropped : int;  (** corrupted/truncated records discarded at open *)
  degraded : bool;
      (** the disk tier was disabled by an I/O failure (ENOSPC, EACCES, a
          closed fd, …) — logged once, after which the store runs
          memory-only; lookups and stores never raise for disk reasons *)
}

type t

val create : ?capacity:int -> ?path:string -> ?log:(string -> unit) -> unit -> t
(** [capacity] bounds the in-memory tier (default 1_000_000 entries).
    [path] enables the disk tier; the file is created when absent and
    loaded best-effort when present.  An unreadable/unwritable path
    degrades to memory-only operation.  Recovery and degradation are
    reported through [log] (default: a [Dfm_obs.Log.warn] record, silent
    until a log sink is installed) and the {!stats} counters. *)

val find : t -> int64 -> verdict option
(** Counts a hit or a miss. *)

val find_certified : t -> int64 -> verdict option
(** Like {!find}, but an entry not published by a certified run (or whose
    on-disk certificate mark failed validation at load) is a miss. *)

val add : ?certified:bool -> t -> int64 -> verdict -> unit
(** Idempotent on an existing signature (no re-append, no counter bump) —
    except that [~certified:true] upgrades an existing uncertified entry
    with the same verdict (one re-append, counted as a store). *)

val mem_size : t -> int

val stats : t -> stats

val hit_rate : t -> float
(** hits / (hits + misses), 0.0 when no lookups happened. *)

val close : t -> unit
(** Flush and close the disk tier; the store stays usable memory-only. *)
