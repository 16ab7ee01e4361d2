(** Batches of tasks on domains that live for one call.

    [run ~jobs tasks] spawns [min jobs n - 1] domains for a batch of [n]
    tasks.  The caller and those domains claim the tasks through one atomic
    index, and [run] joins the domains before it returns, so no domain
    outlives the batch and an idle program holds none.  At [jobs = 1], or
    for a single task, no domain is spawned and the tasks run in order in
    the caller.

    Any domain may run any task, so tasks must write disjoint state;
    determinism is obtained by making each task a pure function of its own
    index, never of the domain that happens to execute it. *)

val run : jobs:int -> (unit -> unit) array -> unit
(** Run every task to completion.  A task that raises is retried in place
    up to twice, and a task still failing after that is re-run one final
    time sequentially in the caller once the batch has drained — so one
    poisoned task degrades throughput instead of killing the batch.  Only
    that final attempt may raise.

    Tasks must be restartable: re-running one must reach the same final
    state (true of the engine's classification tasks, which write pure
    per-index results to disjoint slots).  Every attempt passes the
    [parallel.task] {!Failpoint} site, which is how the resilience tests
    inject task failures.  The [dfm_pool_task_retries_total] and
    [dfm_pool_task_fallbacks_total] metric counters count the in-place
    retries and the tasks re-run in the caller.

    If a [Domain.spawn] fails, the domains already spawned stop claiming
    tasks and are joined before the exception leaves [run]. *)

val chunk_bounds : chunk:int -> int -> (int * int) array
(** [chunk_bounds ~chunk n] partitions [0 .. n-1] into contiguous [(lo, hi)]
    half-open ranges of length at most [chunk].  A pure function of
    [(chunk, n)] — the sharding used for deterministic merges. *)

(** {1 Default worker cap}

    Sized from the [REPRO_JOBS] environment variable when set, otherwise
    {!Domain.recommended_domain_count}; overridable by the [--jobs] CLI
    flag via {!set_default_jobs}. *)

val default_jobs : unit -> int

val set_default_jobs : int -> unit
