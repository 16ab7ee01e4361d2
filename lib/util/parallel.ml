(* Pool metrics.  Registered at module initialization so the exposition
   always carries the pool family; updates are single atomic adds, and the
   latency histogram's two clock reads are gated on the timing switch. *)
let m_tasks = Dfm_obs.Metrics.counter ~help:"Pool tasks executed" "dfm_pool_tasks_total"

let m_queue_depth =
  Dfm_obs.Metrics.gauge ~help:"Unclaimed tasks in the in-flight pool batch"
    "dfm_pool_queue_depth"

let m_task_latency =
  Dfm_obs.Metrics.histogram ~help:"Pool task run time in nanoseconds"
    "dfm_pool_task_latency_ns"

let m_retries =
  Dfm_obs.Metrics.counter ~help:"Supervised pool tasks retried in place"
    "dfm_pool_task_retries_total"

let m_fallbacks =
  Dfm_obs.Metrics.counter
    ~help:"Supervised pool tasks re-run sequentially in the coordinator"
    "dfm_pool_task_fallbacks_total"

let run_task_measured task =
  Dfm_obs.Metrics.incr m_tasks;
  if Dfm_obs.Metrics.timing_enabled () then begin
    let t0 = Dfm_obs.Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        Dfm_obs.Metrics.observe m_task_latency
          (Int64.to_int (Int64.sub (Dfm_obs.Clock.now_ns ()) t0)))
      task
  end
  else task ()

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;       (* workers: a new batch is available *)
  finished : Condition.t;   (* submitter: the batch has drained *)
  mutable batch : (unit -> unit) array;
  mutable next : int;       (* next unclaimed task of the batch *)
  mutable remaining : int;  (* claimed-but-unfinished + unclaimed tasks *)
  mutable generation : int;
  mutable busy : bool;      (* a batch is in flight (reentrancy guard) *)
  mutable stop : bool;
  mutable failure : exn option;
  mutable domains : unit Domain.t list;
}

(* Claim and run tasks of the current batch until none are left.  Claims are
   serialized by the pool mutex; the task bodies run unlocked. *)
let drain t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    if t.next < Array.length t.batch then begin
      let i = t.next in
      t.next <- i + 1;
      let task = t.batch.(i) in
      Dfm_obs.Metrics.set m_queue_depth (Array.length t.batch - t.next);
      Mutex.unlock t.mutex;
      let failed = try run_task_measured task; None with e -> Some e in
      Mutex.lock t.mutex;
      (match failed with
      | Some e when t.failure = None -> t.failure <- Some e
      | Some _ | None -> ());
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
    else begin
      Mutex.unlock t.mutex;
      continue := false
    end
  done

let worker t () =
  let last = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !last do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      continue := false
    end
    else begin
      last := t.generation;
      Mutex.unlock t.mutex;
      drain t
    end
  done

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = [||];
      next = 0;
      remaining = 0;
      generation = 0;
      busy = false;
      stop = false;
      failure = None;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

(* Idempotent: the domain list is claimed under the mutex, so a second call
   (or the at_exit hook racing an explicit shutdown of the global pool)
   finds an empty list and returns without joining anything twice. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  let domains = t.domains in
  t.domains <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let stopped t =
  Mutex.lock t.mutex;
  let s = t.stop in
  Mutex.unlock t.mutex;
  s

let run_sequential tasks = Array.iter run_task_measured tasks

let run_tasks t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.jobs = 1 || n = 1 || t.stop then run_sequential tasks
  else begin
    Mutex.lock t.mutex;
    if t.busy then begin
      (* Nested submission from inside a task: degrade to the caller. *)
      Mutex.unlock t.mutex;
      run_sequential tasks
    end
    else begin
      t.busy <- true;
      t.batch <- tasks;
      t.next <- 0;
      t.remaining <- n;
      t.failure <- None;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      drain t;
      Mutex.lock t.mutex;
      while t.remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      let failure = t.failure in
      t.batch <- [||];
      t.next <- 0;
      t.failure <- None;
      t.busy <- false;
      Mutex.unlock t.mutex;
      match failure with Some e -> raise e | None -> ()
    end
  end

(* ------------------------------------------------------------------ *)
(* Supervised batches                                                   *)
(* ------------------------------------------------------------------ *)

type supervision = { retried : int; fell_back : int }

let retried_total = Atomic.make 0
let fallback_total = Atomic.make 0

let supervision_totals () = (Atomic.get retried_total, Atomic.get fallback_total)

(* Every task execution — worker attempt or coordinator fallback — passes
   through the [parallel.task] failpoint, so resilience tests can poison
   tasks without touching caller code. *)
let attempt task =
  Failpoint.hit "parallel.task";
  task ()

let run_tasks_supervised ?(retries = 2) t tasks =
  let n = Array.length tasks in
  if n = 0 then { retried = 0; fell_back = 0 }
  else begin
    let retried = Atomic.make 0 in
    let failed = Array.make n false in
    (* The wrapped task retries in place (in whichever domain claimed it)
       and never lets an exception reach the pool: a task still failing
       after its retries only marks its slot for the coordinator. *)
    let wrap i () =
      let rec go k =
        match attempt tasks.(i) with
        | () -> ()
        | exception _ when k < retries ->
            Atomic.incr retried;
            Atomic.incr retried_total;
            Dfm_obs.Metrics.incr m_retries;
            go (k + 1)
        | exception _ -> failed.(i) <- true
      in
      go 0
    in
    run_tasks t (Array.init n wrap);
    (* Sequential fallback: the batch's poisoned tasks re-run one final
       time in the coordinator, where an exception is a real error and
       propagates to the caller instead of killing a worker domain. *)
    let fell_back = ref 0 in
    Array.iteri
      (fun i f ->
        if f then begin
          incr fell_back;
          Atomic.incr fallback_total;
          Dfm_obs.Metrics.incr m_fallbacks;
          attempt tasks.(i)
        end)
      failed;
    { retried = Atomic.get retried; fell_back = !fell_back }
  end

let chunk_bounds ~chunk n =
  let chunk = max 1 chunk in
  let nchunks = (n + chunk - 1) / chunk in
  Array.init nchunks (fun k -> (k * chunk, min n ((k + 1) * chunk)))

(* ------------------------------------------------------------------ *)
(* Global default pool                                                  *)
(* ------------------------------------------------------------------ *)

let recommended_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let default = ref None        (* the global pool, if spawned *)
let chosen_jobs = ref None    (* --jobs override *)

let default_jobs () =
  match !chosen_jobs with Some j -> j | None -> recommended_jobs ()

let set_default_jobs j = chosen_jobs := Some (max 1 j)

let at_exit_registered = ref false

(* Any live pool at least [jobs] wide is reused: callers submit at most
   [jobs] tasks per batch, so the extra workers of a wider pool stay idle
   and the worker cap holds without respawning domains. *)
let get ?jobs () =
  let requested = match jobs with Some j -> max 1 j | None -> default_jobs () in
  match !default with
  | Some t when (not (stopped t)) && t.jobs >= requested -> t
  | prev ->
      Option.iter shutdown prev;
      let t = create ~jobs:requested in
      default := Some t;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit (fun () -> Option.iter shutdown !default)
      end;
      t
