module P = Protocol
module Design = Dfm_core.Design
module Resynth = Dfm_core.Resynth
module Report = Dfm_core.Report
module Metrics = Dfm_obs.Metrics
module Log = Dfm_obs.Log
module Journal = Dfm_util.Journal

type config = { socket_path : string; state_dir : string; jobs : int; certify : bool }

exception Startup_error of string

exception Cancelled_job

exception Timed_out_job

(* Daemon-level metrics: served live to any client via the [metrics]
   request, alongside everything the engines record. *)
let m_jobs =
  Metrics.counter ~help:"Jobs completed by the serve daemon" "dfm_serve_jobs_total"

let m_dropped_events =
  Metrics.counter ~help:"Streamed event frames dropped to slow clients"
    "dfm_serve_events_dropped_total"

let m_queue_depth = Metrics.gauge ~help:"Jobs queued in the serve daemon" "dfm_serve_queue_depth"

let m_connections = Metrics.gauge ~help:"Open serve connections" "dfm_serve_connections"

let m_queue_wait =
  Metrics.histogram ~help:"Queue wait per job, milliseconds" "dfm_serve_queue_wait_ms"

let m_accept_backoffs =
  Metrics.counter ~help:"Accept attempts deferred on fd exhaustion (EMFILE/ENFILE)"
    "dfm_serve_accept_backoffs_total"

let m_conns_shed =
  Metrics.counter ~help:"Idle event-stream connections shed to free descriptors"
    "dfm_serve_conns_shed_total"

let m_telemetry_dropped =
  Metrics.counter ~help:"Telemetry frames dropped to slow subscribers"
    "dfm_serve_telemetry_dropped_total"

(* A slow reader may lag; events are droppable once its buffer passes this,
   result frames never are. *)
let max_buffered_events = 1 lsl 20

type conn = {
  fd : Unix.file_descr;
  created : float;            (* accept time: shedding targets the oldest *)
  dec : Frame.Decoder.t;
  outq : string Queue.t;      (* encoded frames awaiting the socket *)
  mutable out_off : int;      (* progress into the head of [outq] *)
  mutable out_bytes : int;
  mutable close_after_flush : bool;
  mutable dead : bool;
  mutable telemetry : P.telemetry_sub option;
  mutable next_metrics_at : float;  (* next paced metrics frame for this sub *)
}

type job = {
  id : string;
  mutable sub : P.submit;  (* netlist text emptied once the job is settled *)
  resume : bool;  (* restart re-attach: continue from the job's journal *)
  submitted : float;
  mutable state : P.job_state;
  mutable detail : string;
  mutable result : P.result_payload option;
  mutable cancel : bool;
  mutable started : float;
  mutable watchers : conn list;
}

type account = {
  mutable a_jobs : int;
  mutable a_service : float;
  mutable a_hits : int;
  mutable a_misses : int;
}

type t = {
  cfg : config;
  mu : Mutex.t;
  cond : Condition.t;         (* executor wakeup *)
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;   (* self-pipe: executor -> select loop *)
  wake_w : Unix.file_descr;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  jobs : (string, job) Hashtbl.t;
  mutable job_order : string list;  (* reversed insertion order *)
  sched : string Scheduler.t;
  accounts : (string, account) Hashtbl.t;
  mutable account_order : string list;  (* reversed *)
  cache : Dfm_incr.Cache.t;
  mutable ledger : Journal.t option;  (* None after a failed append *)
  mutable next_id : int;
  mutable running : job option;
  mutable accept_backoff : float;     (* current EMFILE backoff, 0 = healthy *)
  mutable accept_resume_at : float;   (* listen_fd rejoins select after this *)
  mutable draining : bool;
  mutable drain_watchers : conn list;
  mutable shutdown : bool;
  mutable completed : int;
  mutable next_span_pump : float;  (* pacing for the shared span drain *)
  spans_at_start : bool;  (* span collection already on before we arbitrate it *)
}

(* SIGUSR2 asks a live daemon for a flight-recorder dump; the handler only
   raises a flag the select loop polls, everything else is async-unsafe. *)
let sigusr2_dump = Atomic.make false

let now () = Unix.gettimeofday ()

let pending_job ~id ~resume ~watchers sub =
  {
    id;
    sub;
    resume;
    submitted = now ();
    state = P.Pending;
    detail = "";
    result = None;
    cancel = false;
    started = 0.;
    watchers;
  }

let account d client =
  match Hashtbl.find_opt d.accounts client with
  | Some a -> a
  | None ->
      let a = { a_jobs = 0; a_service = 0.; a_hits = 0; a_misses = 0 } in
      Hashtbl.add d.accounts client a;
      d.account_order <- client :: d.account_order;
      a

let wake d =
  try ignore (Unix.write d.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

(* ---- outgoing frames (mu held) ---------------------------------------- *)

let enqueue d conn resp =
  let frame = Frame.encode (P.response_to_json resp) in
  Queue.add frame conn.outq;
  conn.out_bytes <- conn.out_bytes + String.length frame;
  wake d

let post ?(droppable = false) d conn resp =
  if not conn.dead then begin
    if droppable && conn.out_bytes > max_buffered_events then
      Metrics.incr m_dropped_events
    else enqueue d conn resp
  end

(* Telemetry frames are always droppable: results and protocol replies win
   the buffer, telemetry yields and the drop is counted. *)
let post_telemetry d conn resp =
  if not conn.dead then begin
    if conn.out_bytes > max_buffered_events then Metrics.incr m_telemetry_dropped
    else enqueue d conn resp
  end

(* Span collection costs a little per span, so the daemon turns it on only
   while someone is subscribed — unless it was already on (CLI --timing),
   which the daemon never overrides. *)
let refresh_span_collection d =
  let wanted =
    Hashtbl.fold
      (fun _ c acc ->
        acc
        || match c.telemetry with Some s -> (not c.dead) && s.P.t_spans | None -> false)
      d.conns false
  in
  Dfm_obs.Span.set_enabled (d.spans_at_start || wanted)

let flight_dir d = Filename.concat d.cfg.state_dir "flightrec"

(* Logs on both paths, so never call while holding [mu] (the obs router's
   log sink takes it). *)
let flight_dump_logged d ~reason =
  match Dfm_obs.Recorder.dump ~dir:(flight_dir d) ~reason with
  | Ok (trace, _) ->
      Log.warn (Printf.sprintf "serve: flight recorder dump (%s) -> %s" reason trace)
  | Error e ->
      Log.error (Printf.sprintf "serve: flight recorder dump failed (%s): %s" reason e)

let post_watchers ?droppable d job resp =
  job.watchers <- List.filter (fun c -> not c.dead) job.watchers;
  List.iter (fun c -> post ?droppable d c resp) job.watchers

(* ---- ledger ------------------------------------------------------------ *)

(* A journal of protocol messages, so replay reuses the protocol decoders.
   Records are ordered (a result follows its submit), so only the intact
   prefix is kept; opening compacts anything after it. *)
let ledger_magic = "DFMLG01\n"

let ledger_path state_dir = Filename.concat state_dir "ledger.bin"

let open_ledger path =
  let loaded = Journal.load ~magic:ledger_magic path in
  let records = Journal.intact_prefix loaded in
  ( Journal.open_ ~sites:[ "serve.ledger" ] ~magic:ledger_magic ~keep:records loaded path,
    records,
    loaded.Journal.dropped )

(* A failed append may leave a torn record, so the journal is dropped and
   the next append re-opens it, which compacts the tail instead of writing
   behind the damage. *)
let ledger_append d (v : Wire.t) =
  try
    let j =
      match d.ledger with
      | Some j -> j
      | None ->
          let j, _, _ = open_ledger (ledger_path d.cfg.state_dir) in
          d.ledger <- Some j;
          j
    in
    Journal.append j (Wire.to_string v);
    Journal.flush j
  with e ->
    Option.iter Journal.close d.ledger;
    d.ledger <- None;
    Log.error (Printf.sprintf "serve: ledger append failed: %s" (Printexc.to_string e))

let ledger_submit d (j : job) =
  ledger_append d
    (Wire.Obj
       [
         ("rec", Wire.String "submit");
         ("job", Wire.String j.id);
         ("sub", Wire.String (P.request_to_json (P.Submit j.sub)));
       ])

let ledger_done d (j : job) (p : P.result_payload) =
  ledger_append d
    (Wire.Obj
       [
         ("rec", Wire.String "done");
         ("job", Wire.String j.id);
         ("res", Wire.String (P.response_to_json (P.Result p)));
       ])

(* ---- job lifecycle (mu held unless noted) ------------------------------ *)

let job_ckpt_dir d id = Filename.concat (Filename.concat d.cfg.state_dir "jobs") id

let register_job d (j : job) =
  Hashtbl.add d.jobs j.id j;
  d.job_order <- j.id :: d.job_order

let finish_drain_if_idle d =
  if d.draining && d.running = None && Scheduler.pending d.sched = 0 then begin
    List.iter
      (fun c -> if not c.dead then post d c (P.Drained { completed = d.completed }))
      d.drain_watchers;
    d.drain_watchers <- [];
    d.shutdown <- true;
    Condition.broadcast d.cond;
    wake d
  end

(* A finished job's state follows from its result, live or replayed.  Only
   [execute] reads the netlist text, so a settled job lets it go: the job
   table outlives every job, and would otherwise hold each submitted
   netlist for the daemon's life. *)
let settle (j : job) (p : P.result_payload) =
  j.state <-
    (match p.P.r_outcome with "done" -> P.Done | "cancelled" -> P.Cancelled | _ -> P.Failed);
  j.detail <- (if p.P.r_outcome = "done" then "" else p.P.r_outcome);
  j.result <- Some p;
  j.sub <- { j.sub with P.netlist = "" }

let complete_job d (j : job) (p : P.result_payload) ~service =
  settle j p;
  Scheduler.charge d.sched ~client:j.sub.P.client service;
  let a = account d j.sub.P.client in
  a.a_jobs <- a.a_jobs + 1;
  a.a_service <- a.a_service +. service;
  d.completed <- d.completed + 1;
  Metrics.incr m_jobs;
  ledger_done d j p;
  post_watchers d j (P.Result p);
  j.watchers <- [];
  finish_drain_if_idle d;
  wake d

(* ---- the executor thread ----------------------------------------------- *)

(* Runs without [mu]: everything here is engine work on state only this
   thread touches.  The verdict-cache stats deltas around the run are the
   per-client attribution. *)
let execute d (j : job) =
  let sub = j.sub in
  (* One span per job: streamed traces and flight dumps tie every engine
     span below to the owning job, and any exceptional unwind crosses at
     least this frame, so a failure stack is always captured. *)
  Dfm_obs.Span.with_ "serve.job" ~attrs:[ ("job", j.id); ("tenant", sub.P.client) ]
  @@ fun () ->
  (* A tenant may lower the worker cap, never raise it past the daemon's. *)
  let cap =
    match sub.P.limits.P.jobs with Some n -> min n d.cfg.jobs | None -> d.cfg.jobs
  in
  Dfm_util.Parallel.set_default_jobs cap;
  let max_conflicts = sub.P.limits.P.max_conflicts in
  let deadline = Option.map (fun s -> j.started +. s) sub.P.limits.P.max_seconds in
  let interrupt () =
    if j.cancel then raise Cancelled_job;
    match deadline with Some t when now () > t -> raise Timed_out_job | _ -> ()
  in
  let nl =
    Dfm_netlist.Netlist_io.read ~library:Dfm_cellmodel.Osu018.library sub.P.netlist
  in
  let cache = d.cache in
  match sub.P.kind with
  | P.Analyze ->
      let dsg = Design.implement ~cache ~jobs:cap ?max_conflicts ~certify:d.cfg.certify nl in
      {
        P.r_job = j.id;
        r_outcome = "done";
        r_report = Report.analyze_report ~name:sub.P.name dsg;
        r_sat_queries = 0;
        r_cache_hits = 0;  (* filled in from the store's hits by [exec_one] *)
        r_accepted = 0;
        r_netlist = None;
      }
  | P.Lint ->
      let rep = Dfm_lint.Lint.check nl in
      let text = Format.asprintf "%a" Dfm_lint.Lint.pp_text rep in
      {
        P.r_job = j.id;
        r_outcome = "done";
        r_report = text;
        r_sat_queries = 0;
        r_cache_hits = 0;
        r_accepted = 0;
        r_netlist = None;
      }
  | P.Resynth ->
      let dir = job_ckpt_dir d j.id in
      (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Filename.concat dir "campaign.ckpt" in
      let checkpoint = { Resynth.path; resume = j.resume && Sys.file_exists path } in
      let q_max = match sub.P.q_max with Some q -> q | None -> 5 in
      let p1_percent = match sub.P.p1 with Some p -> p | None -> 1.0 in
      let d0 =
        Design.implement ~cache ?max_conflicts ~certify:d.cfg.certify nl
      in
      interrupt ();
      let r =
        Resynth.run ~p1_percent ~q_max ?max_conflicts ~certify:d.cfg.certify
          ~checkpoint ~interrupt d0
      in
      {
        P.r_job = j.id;
        r_outcome = "done";
        r_report = Report.resynth_report ~name:sub.P.name r;
        r_sat_queries = r.Resynth.effort.Resynth.sat_queries;
        r_cache_hits = 0;
        r_accepted = r.Resynth.accepted;
        r_netlist = Some (Dfm_netlist.Netlist_io.to_string r.Resynth.final.Design.netlist);
      }

let failed_payload (j : job) outcome detail =
  {
    P.r_job = j.id;
    r_outcome = outcome;
    r_report = detail;
    r_sat_queries = 0;
    r_cache_hits = 0;
    r_accepted = 0;
    r_netlist = None;
  }

let exec_one d (j : job) =
  let t0 = now () in
  Metrics.observe m_queue_wait (int_of_float ((t0 -. j.submitted) *. 1000.));
  let stats0 = Dfm_incr.Cache.stats d.cache in
  (* Ambient attribution: the executor is single-lane, so every engine
     counter bumped between here and the clear belongs to this tenant.  Not
     to the job: a job label would register a fresh set of series per job
     that is never freed.  Per-job numbers are in the result payload and on
     the serve.job span. *)
  Metrics.set_attribution [ ("tenant", j.sub.P.client) ];
  let payload =
    match execute d j with
    | p -> p
    | exception Cancelled_job -> failed_payload j "cancelled" "cancelled by request"
    | exception Timed_out_job ->
        failed_payload j "timeout" "wall-clock limit reached (journal kept; resubmit resumes)"
    | exception Dfm_sat.Cert.Check_failed msg ->
        failed_payload j "failed" ("certification failed: " ^ msg)
    | exception e -> failed_payload j "failed" (Printexc.to_string e)
  in
  Metrics.set_attribution [];
  if payload.P.r_outcome <> "done" then
    flight_dump_logged d
      ~reason:(Printf.sprintf "job %s %s: %s" j.id payload.P.r_outcome payload.P.r_report);
  let stats1 = Dfm_incr.Cache.stats d.cache in
  let service = now () -. t0 in
  Mutex.protect d.mu @@ fun () ->
  let a = account d j.sub.P.client in
  a.a_hits <- a.a_hits + (stats1.Dfm_incr.Store.hits - stats0.Dfm_incr.Store.hits);
  a.a_misses <- a.a_misses + (stats1.Dfm_incr.Store.misses - stats0.Dfm_incr.Store.misses);
  let payload =
    if payload.P.r_outcome = "done" then
      { payload with P.r_cache_hits = stats1.Dfm_incr.Store.hits - stats0.Dfm_incr.Store.hits }
    else payload
  in
  d.running <- None;
  complete_job d j payload ~service

let executor d =
  let rec loop () =
    let next =
      Mutex.protect d.mu @@ fun () ->
      let rec wait () =
        if d.shutdown then None
        else
          match Scheduler.take d.sched with
          | Some (_, id) ->
              let j = Hashtbl.find d.jobs id in
              j.state <- P.Running;
              j.started <- now ();
              d.running <- Some j;
              Metrics.set m_queue_depth (Scheduler.pending d.sched);
              Some j
          | None ->
              Condition.wait d.cond d.mu;
              wait ()
      in
      wait ()
    in
    match next with
    | None -> ()
    | Some j ->
        exec_one d j;
        loop ()
  in
  loop ()

(* ---- request handling (network thread, mu held) ------------------------ *)

let job_views d =
  List.rev_map
    (fun id ->
      let j = Hashtbl.find d.jobs id in
      {
        P.jv_id = j.id;
        jv_client = j.sub.P.client;
        jv_kind = j.sub.P.kind;
        jv_name = j.sub.P.name;
        jv_state = j.state;
        jv_detail = j.detail;
      })
    d.job_order

let client_views d =
  List.rev_map
    (fun client ->
      let a = Hashtbl.find d.accounts client in
      {
        P.cv_client = client;
        cv_jobs = a.a_jobs;
        cv_service_s = a.a_service;
        cv_cache_hits = a.a_hits;
        cv_cache_misses = a.a_misses;
      })
    d.account_order

let fresh_id d =
  let id = Printf.sprintf "J%d" d.next_id in
  d.next_id <- d.next_id + 1;
  id

let handle_submit d conn (sub : P.submit) =
  if d.draining then post d conn (P.Error_msg "daemon is draining; not accepting jobs")
  else
    (* The incremental engine is the only one, and its UNSAT answer the only
       proof of undetectability; both fields stay on the wire for clients
       that still send them. *)
    match sub.P.sat_mode with
    | Some m when m <> "incremental" ->
        post d conn (P.Error_msg (Printf.sprintf "unknown sat mode %S" m))
    | _ when sub.P.static_filter ->
        post d conn (P.Error_msg "the static filter is gone; submit with static_filter false")
    | _ when (match sub.P.limits.P.jobs with Some n -> n < 1 | None -> false) ->
        post d conn (P.Error_msg "jobs limit must be at least 1")
    | _ ->
        let j = pending_job ~id:(fresh_id d) ~resume:false ~watchers:[ conn ] sub in
        register_job d j;
        ledger_submit d j;
        let position = Scheduler.submit d.sched ~client:sub.P.client j.id in
        Metrics.set m_queue_depth (Scheduler.pending d.sched);
        post d conn (P.Accepted { job = j.id; position });
        Condition.broadcast d.cond

let handle_request d conn payload =
  match P.request_of_json payload with
  | Error e ->
      post d conn (P.Error_msg (Printf.sprintf "bad request: %s" e));
      conn.close_after_flush <- true
  | Ok (P.Submit sub) -> handle_submit d conn sub
  | Ok (P.Status id) ->
      (* An id not submitted yet lists no job rather than failing: a client
         may poll for a job that another is still submitting. *)
      let jobs =
        match id with
        | None -> job_views d
        | Some id -> List.filter (fun jv -> jv.P.jv_id = id) (job_views d)
      in
      post d conn (P.Status_report { draining = d.draining; jobs; clients = client_views d })
  | Ok (P.Await id) -> (
      match Hashtbl.find_opt d.jobs id with
      | None -> post d conn (P.Error_msg (Printf.sprintf "unknown job %s" id))
      | Some j -> (
          match j.result with
          | Some p -> post d conn (P.Result p)
          | None -> j.watchers <- conn :: j.watchers))
  | Ok (P.Cancel id) -> (
      match Hashtbl.find_opt d.jobs id with
      | None -> post d conn (P.Error_msg (Printf.sprintf "unknown job %s" id))
      | Some j -> (
          match j.state with
          | P.Pending ->
              ignore (Scheduler.remove d.sched (fun jid -> jid = id) : string option);
              Metrics.set m_queue_depth (Scheduler.pending d.sched);
              complete_job d j (failed_payload j "cancelled" "cancelled while queued")
                ~service:0.;
              post d conn P.Ok_resp
          | P.Running ->
              (* Honoured at the campaign's next design-point boundary;
                 analyze/lint jobs run to completion once started. *)
              j.cancel <- true;
              post d conn P.Ok_resp
          | P.Done | P.Failed | P.Cancelled ->
              post d conn (P.Error_msg (Printf.sprintf "job %s already finished" id))))
  | Ok P.Drain ->
      d.draining <- true;
      d.drain_watchers <- conn :: d.drain_watchers;
      finish_drain_if_idle d
  | Ok P.Metrics -> post d conn (P.Metrics_text (Dfm_obs.Export.prometheus_now ()))
  | Ok (P.Telemetry_sub s) ->
      conn.telemetry <- Some s;
      conn.next_metrics_at <- 0.;
      d.next_span_pump <- 0.;
      refresh_span_collection d;
      post d conn P.Ok_resp
  | Ok P.Dump -> (
      (* No logging here: [mu] is held and the log sink would retake it. *)
      match Dfm_obs.Recorder.dump ~dir:(flight_dir d) ~reason:"dump request" with
      | Ok (trace, text) -> post d conn (P.Dumped { trace; text })
      | Error e -> post d conn (P.Error_msg ("flight dump failed: " ^ e)))

(* ---- connection I/O (network thread) ----------------------------------- *)

let close_conn d conn =
  if not conn.dead then begin
    conn.dead <- true;
    Hashtbl.remove d.conns conn.fd;
    Metrics.set m_connections (Hashtbl.length d.conns);
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    if conn.telemetry <> None then refresh_span_collection d
  end

let pump_requests d conn =
  let rec go () =
    match Frame.Decoder.next conn.dec with
    | Ok (Some payload) ->
        Mutex.protect d.mu (fun () -> handle_request d conn payload);
        go ()
    | Ok None -> ()
    | Error e ->
        (* Fail closed: report the violation, then drop the connection.
           The daemon itself keeps serving everyone else. *)
        Mutex.protect d.mu (fun () ->
            post d conn (P.Error_msg e);
            conn.close_after_flush <- true)
  in
  go ()

let on_readable d conn =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 -> Mutex.protect d.mu (fun () -> close_conn d conn)
    | n ->
        Frame.Decoder.feed conn.dec buf n;
        pump_requests d conn;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Mutex.protect d.mu (fun () -> close_conn d conn)
  in
  if not conn.dead then go ()

let on_writable d conn =
  Mutex.protect d.mu @@ fun () ->
  let rec go () =
    match Queue.peek_opt conn.outq with
    | None -> if conn.close_after_flush then close_conn d conn
    | Some head -> (
        let len = String.length head - conn.out_off in
        match Unix.write_substring conn.fd head conn.out_off len with
        | n ->
            conn.out_bytes <- conn.out_bytes - n;
            if n = len then begin
              ignore (Queue.pop conn.outq : string);
              conn.out_off <- 0;
              go ()
            end
            else conn.out_off <- conn.out_off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            close_conn d conn)
  in
  if not conn.dead then go ()

(* Shed the oldest idle event-stream connection: one that only awaits job
   events (registered as a watcher, nothing buffered for it).  Its client
   loses the stream, not the job — results are re-awaitable by id. *)
let shed_idle_watcher d =
  Mutex.protect d.mu @@ fun () ->
  let is_watcher c =
    Hashtbl.fold (fun _ j acc -> acc || List.memq c j.watchers) d.jobs false
  in
  let victim =
    Hashtbl.fold
      (fun _ c best ->
        if (not c.dead) && Queue.is_empty c.outq && is_watcher c then
          match best with Some b when b.created <= c.created -> best | _ -> Some c
        else best)
      d.conns None
  in
  match victim with
  | Some c ->
      Metrics.incr m_conns_shed;
      Log.warn "serve: fd exhaustion — shed oldest idle event stream (result stays awaitable)";
      close_conn d c;
      true
  | None -> false

let accept_backoff_initial = 0.05
let accept_backoff_max = 1.0

(* Descriptor exhaustion is a load condition, not a crash: free a
   descriptor if an idle stream can be shed, take the listening socket out
   of the select set for a bounded exponentially growing interval, and keep
   serving the connections that exist.  [serve.accept_emfile] injects this
   path deterministically for the chaos tests. *)
let accept_fd_exhausted d err =
  Metrics.incr m_accept_backoffs;
  ignore (shed_idle_watcher d : bool);
  d.accept_backoff <-
    (if d.accept_backoff = 0. then accept_backoff_initial
     else Float.min accept_backoff_max (d.accept_backoff *. 2.));
  d.accept_resume_at <- now () +. d.accept_backoff;
  Log.warn (Printf.sprintf "serve: accept failed (%s); retrying in %.2fs" err d.accept_backoff)

let accept_conn d =
  match Dfm_util.Failpoint.check "serve.accept_emfile" with
  | Some _ -> accept_fd_exhausted d "injected EMFILE"
  | None -> (
      match Unix.accept d.listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          d.accept_backoff <- 0.;
          d.accept_resume_at <- 0.;
          let conn =
            {
              fd;
              created = now ();
              dec = Frame.Decoder.create ();
              outq = Queue.create ();
              out_off = 0;
              out_bytes = 0;
              close_after_flush = false;
              dead = false;
              telemetry = None;
              next_metrics_at = 0.;
            }
          in
          Mutex.protect d.mu (fun () ->
              Hashtbl.add d.conns fd conn;
              Metrics.set m_connections (Hashtbl.length d.conns))
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE) as e, _, _) ->
          accept_fd_exhausted d (Unix.error_message e)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

(* ---- telemetry pump (network thread) ----------------------------------- *)

let span_pump_interval = 0.25
let metrics_interval_floor_ms = 100

(* One shared span drain fans out to every span subscriber; metrics frames
   are rendered per subscription (family filter, interval).  Paced by the
   select loop: at worst one tick late, which telemetry tolerates. *)
let pump_telemetry d =
  let t = now () in
  Mutex.protect d.mu @@ fun () ->
  let span_subs =
    Hashtbl.fold
      (fun _ c acc ->
        match c.telemetry with
        | Some s when (not c.dead) && s.P.t_spans -> c :: acc
        | _ -> acc)
      d.conns []
  in
  if span_subs <> [] && t >= d.next_span_pump then begin
    d.next_span_pump <- t +. span_pump_interval;
    match Dfm_obs.Span.drain () with
    | [] -> ()
    | fresh ->
        let data = Dfm_obs.Export.complete_events_ndjson fresh in
        List.iter
          (fun c -> post_telemetry d c (P.Telemetry { stream = "spans"; data }))
          span_subs
  end;
  Hashtbl.iter
    (fun _ c ->
      match c.telemetry with
      | Some s when (not c.dead) && s.P.t_metrics && t >= c.next_metrics_at ->
          let interval_ms =
            match s.P.t_interval_ms with
            | Some ms -> max metrics_interval_floor_ms ms
            | None -> 1000
          in
          c.next_metrics_at <- t +. (float_of_int interval_ms /. 1000.);
          let snap = Dfm_obs.Export.filter_families s.P.t_families (Metrics.snapshot ()) in
          post_telemetry d c
            (P.Telemetry { stream = "metrics"; data = Dfm_obs.Export.prometheus_string snap })
      | _ -> ())
    d.conns

let serve_loop d =
  let drain_wake () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read d.wake_r buf 0 256 with
      | 256 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    in
    go ()
  in
  let finished = ref false in
  while not !finished do
    let reads, writes, done_ =
      Mutex.protect d.mu @@ fun () ->
      let conns = Hashtbl.fold (fun _ c acc -> c :: acc) d.conns [] in
      (* While backing off from fd exhaustion the listening socket sits out
         of the select set; the 1.0s select timeout re-admits it on time. *)
      let accepting = now () >= d.accept_resume_at in
      let reads =
        (if accepting then [ d.listen_fd ] else [])
        @ d.wake_r
          :: List.filter_map (fun c -> if c.dead then None else Some c.fd) conns
      in
      let writes =
        List.filter_map
          (fun c ->
            if (not c.dead) && not (Queue.is_empty c.outq) then Some c.fd else None)
          conns
      in
      let flushed =
        List.for_all (fun c -> c.dead || Queue.is_empty c.outq) conns
      in
      (reads, writes, d.shutdown && flushed)
    in
    if done_ then finished := true
    else begin
      (match Unix.select reads writes [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | rs, ws, _ ->
          if List.mem d.wake_r rs then drain_wake ();
          if List.mem d.listen_fd rs then accept_conn d;
          List.iter
            (fun fd ->
              if fd <> d.listen_fd && fd <> d.wake_r then
                match Hashtbl.find_opt d.conns fd with
                | Some conn -> on_readable d conn
                | None -> ())
            rs;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt d.conns fd with
              | Some conn -> on_writable d conn
              | None -> ())
            ws);
      if Atomic.exchange sigusr2_dump false then flight_dump_logged d ~reason:"SIGUSR2";
      pump_telemetry d
    end
  done

(* ---- startup: state dir, socket, ledger replay -------------------------- *)

let ensure_dir path =
  try
    if not (Sys.file_exists path) then Sys.mkdir path 0o755;
    if not (Sys.is_directory path) then
      raise (Startup_error (Printf.sprintf "%s is not a directory" path))
  with Sys_error e -> raise (Startup_error (Printf.sprintf "cannot create %s: %s" path e))

(* A socket file may be a live daemon or a stale leftover from a kill; only
   a connect can tell.  A live one is a startup error (duplicate daemon), a
   stale one is unlinked and replaced. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then
      raise (Startup_error (Printf.sprintf "a daemon is already serving %s" path));
    try Unix.unlink path
    with Unix.Unix_error (e, _, _) ->
      raise
        (Startup_error
           (Printf.sprintf "cannot remove stale socket %s: %s" path (Unix.error_message e)))
  end;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Startup_error
          (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))));
  fd

type replayed = {
  rp_jobs : (string * job) list;  (* insertion order *)
  rp_next_id : int;
}

let replay_ledger records ckpt_dir_of =
  let jobs = ref [] in
  let next = ref 1 in
  List.iter
    (fun payload ->
      match Wire.parse payload with
      | Error _ -> ()
      | Ok v -> (
          match Wire.str_field "rec" v with
          | Some "submit" -> (
              match
                ( Wire.str_field "job" v,
                  Option.bind (Wire.str_field "sub" v) (fun s ->
                      Result.to_option (P.request_of_json s)) )
              with
              | Some id, Some (P.Submit sub) ->
                  (match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
                  | Some n when n >= !next -> next := n + 1
                  | _ -> ());
                  let resume = Sys.file_exists (Filename.concat (ckpt_dir_of id) "campaign.ckpt") in
                  jobs := (id, pending_job ~id ~resume ~watchers:[] sub) :: !jobs
              | _ -> ())
          | Some "done" -> (
              match
                ( Wire.str_field "job" v,
                  Option.bind (Wire.str_field "res" v) (fun s ->
                      Result.to_option (P.response_of_json s)) )
              with
              | Some id, Some (P.Result p) ->
                  Option.iter (fun j -> settle j p) (List.assoc_opt id !jobs)
              | _ -> ())
          | _ -> ()))
    records;
  { rp_jobs = List.rev !jobs; rp_next_id = !next }

(* Route engine observability to the watchers of whichever job is running.
   The router drops nothing the engines rely on — logging is output-only —
   and events to slow readers are droppable by policy. *)
let install_obs_router d =
  Log.set_level Log.Info;
  Log.set_sink
    (Some
       (fun (r : Log.record) ->
         Mutex.protect d.mu @@ fun () ->
         match d.running with
         | Some j ->
             post_watchers ~droppable:true d j
               (P.Event
                  {
                    job = j.id;
                    stream = "log";
                    data =
                      Printf.sprintf "%s: %s" (Log.level_to_string r.Log.level) r.Log.message;
                  })
         | None -> ()));
  Dfm_obs.Progress.set_enabled true;
  Dfm_obs.Progress.set_output
    (Some
       (fun line ->
         Mutex.protect d.mu @@ fun () ->
         match d.running with
         | Some j ->
             post_watchers ~droppable:true d j
               (P.Event { job = j.id; stream = "progress"; data = line })
         | None -> ()))

let run ?(on_ready = fun () -> ()) cfg =
  ensure_dir cfg.state_dir;
  ensure_dir (Filename.concat cfg.state_dir "jobs");
  ensure_dir (Filename.concat cfg.state_dir "cache");
  let listen_fd = claim_socket cfg.socket_path in
  let ledger, records, dropped =
    try open_ledger (ledger_path cfg.state_dir)
    with Sys_error e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise (Startup_error (Printf.sprintf "cannot open ledger: %s" e))
  in
  if dropped > 0 then
    Log.warn (Printf.sprintf "serve: ledger tail dropped (%d damaged record(s))" dropped);
  let replayed =
    replay_ledger records (fun id -> Filename.concat (Filename.concat cfg.state_dir "jobs") id)
  in
  let cache =
    Dfm_incr.Cache.create
      ~dir:(Filename.concat cfg.state_dir "cache")
      ~log:(fun s -> Log.info s)
      ()
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let d =
    {
      cfg = { cfg with jobs = max 1 cfg.jobs };
      mu = Mutex.create ();
      cond = Condition.create ();
      listen_fd;
      wake_r;
      wake_w;
      conns = Hashtbl.create 16;
      jobs = Hashtbl.create 64;
      job_order = [];
      sched = Scheduler.create ();
      accounts = Hashtbl.create 16;
      account_order = [];
      cache;
      ledger = Some ledger;
      next_id = replayed.rp_next_id;
      running = None;
      accept_backoff = 0.;
      accept_resume_at = 0.;
      draining = false;
      drain_watchers = [];
      shutdown = false;
      completed = 0;
      next_span_pump = 0.;
      spans_at_start = Dfm_obs.Span.enabled ();
    }
  in
  (* Restart re-attach: completed jobs become awaitable history; incomplete
     ones go straight back on the queue, resynth jobs with their journal. *)
  List.iter
    (fun (_, j) ->
      register_job d j;
      if j.result = None then ignore (Scheduler.submit d.sched ~client:j.sub.P.client j.id : int))
    replayed.rp_jobs;
  Metrics.set m_queue_depth (Scheduler.pending d.sched);
  let default_jobs0 = Dfm_util.Parallel.default_jobs () in
  Dfm_util.Parallel.set_default_jobs d.cfg.jobs;
  install_obs_router d;
  Dfm_obs.Recorder.set_enabled true;
  let old_usr2 =
    try
      Some
        (Sys.signal Sys.sigusr2 (Sys.Signal_handle (fun _ -> Atomic.set sigusr2_dump true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let exec_thread = Thread.create executor d in
  on_ready ();
  serve_loop d;
  Mutex.protect d.mu (fun () ->
      d.shutdown <- true;
      Condition.broadcast d.cond);
  Thread.join exec_thread;
  Mutex.protect d.mu (fun () ->
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
      Hashtbl.reset d.conns);
  (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  Option.iter Journal.close d.ledger;
  Dfm_incr.Cache.close d.cache;
  Dfm_util.Parallel.set_default_jobs default_jobs0;
  (match old_usr2 with
  | Some b -> ( try Sys.set_signal Sys.sigusr2 b with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  Dfm_obs.Recorder.set_enabled false;
  Dfm_obs.Span.set_enabled d.spans_at_start;
  Metrics.set_attribution [];
  Log.set_sink None;
  Dfm_obs.Progress.set_output None;
  Dfm_obs.Progress.set_enabled false;
  d.completed
