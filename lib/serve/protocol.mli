(** The serve protocol: typed requests and responses, carried as JSON
    payloads over {!Frame}s.

    One request per frame, client to daemon; the daemon answers with one
    or more response frames.  A [Submit] is acknowledged with [Accepted]
    and the submitting connection is subscribed to the job: it then
    receives streamed [Event]s (campaign log lines, progress updates) and
    finally exactly one [Result].  [Await] re-subscribes any connection to
    a job by id — including a job resumed by a restarted daemon, whose
    original connection died with the previous process.

    Decoding is total: a frame that parses as JSON but does not shape up
    as a known message yields [Error _], and the daemon answers it with a
    protocol error and closes the connection (fail closed, same policy as
    the frame layer). *)

type job_kind = Analyze | Resynth | Lint

val kind_to_string : job_kind -> string

(** Per-job limits, enforced by the scheduler/executor.  [jobs] caps the
    worker domains the job's classifications may run on (the daemon clamps
    it to its own width); [max_conflicts]
    bounds each SAT query (with the escalation ladder, as on the CLI);
    [max_seconds] cancels a running resynthesis campaign at its next
    design-point boundary (the per-job checkpoint keeps it resumable). *)
type limits = {
  jobs : int option;
  max_conflicts : int option;
  max_seconds : float option;
}

val no_limits : limits

type submit = {
  client : string;       (** tenant identity for fair-share + accounting *)
  kind : job_kind;
  name : string;         (** display/report label, e.g. the circuit name *)
  netlist : string;      (** netlist text ({!Dfm_netlist.Netlist_io} format) *)
  limits : limits;
  static_filter : bool;
      (** must be [false]; the daemon refuses [true] *)
  sat_mode : string option;
      (** [None] or ["incremental"], the only SAT engine; the daemon refuses
          any other value *)
  q_max : int option;        (** resynth only *)
  p1 : float option;         (** resynth only *)
}

(** A telemetry subscription (connection-scoped): the connection starts
    receiving droppable [Telemetry] frames — span batches as they drain
    when [t_spans], periodic metrics snapshots when [t_metrics].
    [t_families] filters metric families by name prefix ([[]] = all);
    [t_interval_ms] paces the metrics frames (default 1000, clamped to a
    daemon-side floor).  Telemetry frames never block job results: under
    backpressure they are dropped and counted in
    [dfm_serve_telemetry_dropped_total]. *)
type telemetry_sub = {
  t_spans : bool;
  t_metrics : bool;
  t_families : string list;
  t_interval_ms : int option;
}

type request =
  | Submit of submit
  | Status of string option  (** all jobs, or one job id (none while unknown) *)
  | Await of string
  | Cancel of string
  | Drain
  | Metrics
  | Telemetry_sub of telemetry_sub
  | Dump  (** write a flight-recorder dump under the daemon state dir *)

type job_state = Pending | Running | Done | Failed | Cancelled

val state_to_string : job_state -> string

type job_view = {
  jv_id : string;
  jv_client : string;
  jv_kind : job_kind;
  jv_name : string;
  jv_state : job_state;
  jv_detail : string;        (** outcome / failure text, "" while live *)
}

type client_view = {
  cv_client : string;
  cv_jobs : int;             (** jobs completed *)
  cv_service_s : float;      (** executor seconds consumed *)
  cv_cache_hits : int;       (** verdict-store hits attributed to this client *)
  cv_cache_misses : int;
}

type result_payload = {
  r_job : string;
  r_outcome : string;        (** "done" | "failed" | "cancelled" | "timeout" *)
  r_report : string;
      (** the deterministic report text — for [Analyze], byte-identical to
          the one-shot CLI's [--report] output for the same inputs *)
  r_sat_queries : int;       (** resynth: the campaign's SAT queries; 0 otherwise *)
  r_cache_hits : int;        (** verdict-store hits of the whole job *)
  r_accepted : int;          (** resynth: accepted steps; 0 otherwise *)
  r_netlist : string option; (** resynth: final netlist text *)
}

type response =
  | Accepted of { job : string; position : int }
  | Event of { job : string; stream : string; data : string }
  | Telemetry of { stream : string; data : string }
      (** Droppable, connection-scoped: [stream] is ["spans"] (NDJSON of
          Chrome "X" complete events, one per line) or ["metrics"]
          (Prometheus text exposition of the subscribed families). *)
  | Result of result_payload
  | Status_report of { draining : bool; jobs : job_view list; clients : client_view list }
  | Metrics_text of string   (** live Prometheus exposition *)
  | Drained of { completed : int }
  | Dumped of { trace : string; text : string }
      (** Flight-recorder dump written; daemon-side artifact paths. *)
  | Ok_resp
  | Error_msg of string

val request_to_json : request -> string

val request_of_json : string -> (request, string) result

val response_to_json : response -> string

val response_of_json : string -> (response, string) result
