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

(* Every task execution — in-place attempt or coordinator fallback — passes
   through the [parallel.task] failpoint, so resilience tests can poison
   tasks without touching caller code. *)
let attempt task =
  Failpoint.hit "parallel.task";
  task ()

(* In-place retries a failing task gets before the coordinator fallback. *)
let retries = 2

let run ~jobs tasks =
  let n = Array.length tasks in
  let failed = Array.make n false in
  (* A task retries in place, in whichever domain claimed it, and never lets
     an exception out: one still failing after its retries only marks its
     slot for the coordinator. *)
  let supervised i () =
    let rec go k =
      match attempt tasks.(i) with
      | () -> ()
      | exception _ when k < retries ->
          Dfm_obs.Metrics.incr m_retries;
          go (k + 1)
      | exception _ -> failed.(i) <- true
    in
    go 0
  in
  let next = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      Dfm_obs.Metrics.set m_queue_depth (n - i - 1);
      run_task_measured (supervised i);
      claim ()
    end
  in
  let domains = ref [] in
  (try
     for _ = 2 to min jobs n do
       domains := Domain.spawn claim :: !domains
     done
   with e ->
     (* The domains already spawned stop claiming and are joined, so none
        outlives the call. *)
     let bt = Printexc.get_raw_backtrace () in
     Atomic.set next n;
     List.iter Domain.join !domains;
     Printexc.raise_with_backtrace e bt);
  claim ();
  List.iter Domain.join !domains;
  (* Sequential fallback: the batch's poisoned tasks re-run one final time
     in the coordinator, where an exception is a real error and propagates
     to the caller. *)
  Array.iteri
    (fun i f ->
      if f then begin
        Dfm_obs.Metrics.incr m_fallbacks;
        attempt tasks.(i)
      end)
    failed

let chunk_bounds ~chunk n =
  let chunk = max 1 chunk in
  let nchunks = (n + chunk - 1) / chunk in
  Array.init nchunks (fun k -> (k * chunk, min n ((k + 1) * chunk)))

(* ------------------------------------------------------------------ *)
(* Default worker cap                                                   *)
(* ------------------------------------------------------------------ *)

let recommended_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let chosen_jobs = ref None    (* --jobs override *)

let default_jobs () =
  match !chosen_jobs with Some j -> j | None -> recommended_jobs ()

let set_default_jobs j = chosen_jobs := Some (max 1 j)
