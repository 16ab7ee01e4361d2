(** A reusable fixed-size Domain worker pool.

    The pool owns [jobs - 1] worker domains; the submitting domain always
    participates, so a pool of size [j] runs at most [j] tasks at once, and
    a batch of [n] tasks at most [n].  At [jobs = 1] no domains are ever
    spawned and every entry point degrades to a plain sequential loop in
    the caller.

    Tasks of one batch are claimed dynamically (any worker may run any
    task), so callers must make tasks write to disjoint state; determinism
    is obtained by making each task a pure function of its own index, never
    of the worker that happens to execute it.

    Batches are not reentrant: a task that submits another batch to the same
    pool runs that inner batch sequentially in its own domain. *)

type t

val create : jobs:int -> t
(** Spawn a pool with [max 1 jobs] slots ([jobs - 1] worker domains). *)

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
    state (true of the engine's classification tasks, which write pure
    per-index results to disjoint slots).  Every attempt passes the
    [parallel.task] {!Failpoint} site, which is how the resilience tests
    inject task failures. *)

val supervision_totals : unit -> int * int
(** Cumulative [(retried, fell_back)] across every supervised batch of the
    process — campaign reports read the delta around a run. *)

val chunk_bounds : chunk:int -> int -> (int * int) array
(** [chunk_bounds ~chunk n] partitions [0 .. n-1] into contiguous [(lo, hi)]
    half-open ranges of length at most [chunk].  A pure function of
    [(chunk, n)] — the sharding used for deterministic merges. *)

(** {1 Global default pool}

    Sized from the [REPRO_JOBS] environment variable when set, otherwise
    {!Domain.recommended_domain_count}; overridable by the [--jobs] CLI
    flag via {!set_default_jobs}. *)

val default_jobs : unit -> int

val set_default_jobs : int -> unit

val get : ?jobs:int -> unit -> t
(** The shared global pool, at least [jobs] (default {!default_jobs})
    wide: a live pool that wide or wider is reused, a narrower one is shut
    down and respawned at [jobs].  Callers cap their concurrency by
    submitting at most [jobs] tasks per batch.  Shut down automatically at
    exit. *)
