(** A reusable fixed-size Domain worker pool.

    The pool owns [jobs - 1] worker domains; the submitting domain always
    participates, so a pool of size [j] runs at most [j] tasks at once.  At
    [jobs = 1] no domains are ever spawned and every entry point degrades to
    a plain sequential loop in the caller — the guaranteed fallback the
    deterministic-sharding contract of the ATPG engine builds on.

    Tasks of one batch are claimed dynamically (any worker may run any
    task), so callers must make tasks write to disjoint state; determinism
    is obtained by making each task a pure function of its own index, never
    of the worker that happens to execute it.

    Batches are not reentrant: a task that submits another batch to the same
    pool runs that inner batch sequentially in its own domain. *)

type t

val create : jobs:int -> t
(** Spawn a pool with [max 1 jobs] slots ([jobs - 1] worker domains). *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains.  The pool must be idle; using it afterwards
    runs everything sequentially in the caller.  Idempotent: a second call
    — including the [at_exit] hook of the global pool racing an explicit
    shutdown — is a no-op. *)

val run_tasks : t -> (unit -> unit) array -> unit
(** Run every task to completion.  The first exception raised by a task is
    re-raised in the caller after the whole batch has drained. *)

type supervision = {
  retried : int;    (** in-place task retries this batch *)
  fell_back : int;  (** tasks re-run sequentially in the coordinator *)
}

val run_tasks_supervised : ?retries:int -> t -> (unit -> unit) array -> supervision
(** {!run_tasks}, but a task that raises is retried in place up to
    [retries] times (default 2), and a task still failing after that is
    re-run one final time sequentially in the coordinator once the batch
    has drained — so one poisoned worker-task degrades throughput instead
    of killing the batch.  Only that final coordinator attempt may raise.

    Tasks must be restartable: re-running one must reach the same final
    state (true of the engine's shard tasks, which write pure per-index
    results to disjoint slots).  Every attempt passes the [parallel.task]
    {!Failpoint} site, which is how the resilience tests inject task
    failures. *)

val supervision_totals : unit -> int * int
(** Cumulative [(retried, fell_back)] across every supervised batch of the
    process — campaign reports read the delta around a run. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map. *)

val chunk_bounds : chunk:int -> int -> (int * int) array
(** [chunk_bounds ~chunk n] partitions [0 .. n-1] into contiguous [(lo, hi)]
    half-open ranges of length at most [chunk].  A pure function of
    [(chunk, n)] — the sharding used for deterministic merges. *)

(** {1 Global default pool}

    Sized from the [REPRO_JOBS] environment variable when set, otherwise
    {!Domain.recommended_domain_count}; overridable by the [--jobs] CLI
    flag via {!set_default_jobs}. *)

val recommended_jobs : unit -> int

val default_jobs : unit -> int

val set_default_jobs : int -> unit

val get : ?jobs:int -> unit -> t
(** The shared global pool, (re)sized to [jobs] (default {!default_jobs}).
    Shut down automatically at exit.  With {!set_pool_floor} in force the
    pool is grow-only: it is sized at least the floor and reused for any
    smaller request rather than respawned. *)

val set_pool_floor : int -> unit
(** [set_pool_floor n] keeps the global pool at least [n] workers wide and
    makes {!get} reuse it for requests of [n] or fewer jobs.  Used by the
    serve daemon to multiplex jobs with differing per-job worker caps onto
    one pool without domain churn.  Sharding is always derived from the
    requested job count, so a wider pool never changes results.  [0]
    (the default) restores exact-size semantics. *)
