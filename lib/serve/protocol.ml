module W = Wire

type job_kind = Analyze | Resynth | Lint

let kind_to_string = function
  | Analyze -> "analyze"
  | Resynth -> "resynth"
  | Lint -> "lint"

let kind_of_string = function
  | "analyze" -> Some Analyze
  | "resynth" -> Some Resynth
  | "lint" -> Some Lint
  | _ -> None

type limits = {
  jobs : int option;
  max_conflicts : int option;
  max_seconds : float option;
}

let no_limits = { jobs = None; max_conflicts = None; max_seconds = None }

type submit = {
  client : string;
  kind : job_kind;
  name : string;
  netlist : string;
  limits : limits;
  static_filter : bool;
  sat_mode : string option;
  q_max : int option;
  p1 : float option;
}

(* A telemetry subscription: the connection starts receiving droppable
   [Telemetry] frames — span batches (NDJSON of Chrome "X" events) when
   [spans], and periodic Prometheus text snapshots when [metrics], filtered
   to families whose name starts with any of [families] ([] = all) and
   paced at [interval_ms] (metrics only; spans ship as they drain). *)
type telemetry_sub = {
  t_spans : bool;
  t_metrics : bool;
  t_families : string list;
  t_interval_ms : int option;
}

type request =
  | Submit of submit
  | Status of string option
  | Await of string
  | Cancel of string
  | Drain
  | Metrics
  | Telemetry_sub of telemetry_sub
  | Dump

type job_state = Pending | Running | Done | Failed | Cancelled

let state_to_string = function
  | Pending -> "pending"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let state_of_string = function
  | "pending" -> Some Pending
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

type job_view = {
  jv_id : string;
  jv_client : string;
  jv_kind : job_kind;
  jv_name : string;
  jv_state : job_state;
  jv_detail : string;
}

type client_view = {
  cv_client : string;
  cv_jobs : int;
  cv_service_s : float;
  cv_cache_hits : int;
  cv_cache_misses : int;
}

type result_payload = {
  r_job : string;
  r_outcome : string;
  r_report : string;
  r_sat_queries : int;
  r_cache_hits : int;
  r_accepted : int;
  r_netlist : string option;
}

type response =
  | Accepted of { job : string; position : int }
  | Event of { job : string; stream : string; data : string }
  | Telemetry of { stream : string; data : string }
      (** Droppable, connection-scoped (not per-job): [stream] is ["spans"]
          (NDJSON of Chrome "X" events) or ["metrics"] (Prometheus text). *)
  | Result of result_payload
  | Status_report of { draining : bool; jobs : job_view list; clients : client_view list }
  | Metrics_text of string
  | Drained of { completed : int }
  | Dumped of { trace : string; text : string }
      (** Flight-recorder dump written; daemon-side artifact paths. *)
  | Ok_resp
  | Error_msg of string

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let opt_int k = function Some i -> [ (k, W.Int i) ] | None -> []

let opt_float k = function Some f -> [ (k, W.Float f) ] | None -> []

let opt_str k = function Some s -> [ (k, W.String s) ] | None -> []

let request_to_json r =
  let v =
    match r with
    | Submit s ->
        W.Obj
          ([
             ("op", W.String "submit");
             ("client", W.String s.client);
             ("kind", W.String (kind_to_string s.kind));
             ("name", W.String s.name);
             ("netlist", W.String s.netlist);
             ("static_filter", W.Bool s.static_filter);
           ]
          @ opt_int "jobs" s.limits.jobs
          @ opt_int "max_conflicts" s.limits.max_conflicts
          @ opt_float "max_seconds" s.limits.max_seconds
          @ opt_str "sat_mode" s.sat_mode
          @ opt_int "q_max" s.q_max
          @ opt_float "p1" s.p1)
    | Status j -> W.Obj (("op", W.String "status") :: opt_str "job" j)
    | Await j -> W.Obj [ ("op", W.String "await"); ("job", W.String j) ]
    | Cancel j -> W.Obj [ ("op", W.String "cancel"); ("job", W.String j) ]
    | Drain -> W.Obj [ ("op", W.String "drain") ]
    | Metrics -> W.Obj [ ("op", W.String "metrics") ]
    | Telemetry_sub t ->
        W.Obj
          ([
             ("op", W.String "telemetry_sub");
             ("spans", W.Bool t.t_spans);
             ("metrics", W.Bool t.t_metrics);
             ("families", W.List (List.map (fun f -> W.String f) t.t_families));
           ]
          @ opt_int "interval_ms" t.t_interval_ms)
    | Dump -> W.Obj [ ("op", W.String "dump") ]
  in
  W.to_string v

let job_view_to_wire jv =
  W.Obj
    [
      ("id", W.String jv.jv_id);
      ("client", W.String jv.jv_client);
      ("kind", W.String (kind_to_string jv.jv_kind));
      ("name", W.String jv.jv_name);
      ("state", W.String (state_to_string jv.jv_state));
      ("detail", W.String jv.jv_detail);
    ]

let client_view_to_wire cv =
  W.Obj
    [
      ("client", W.String cv.cv_client);
      ("jobs", W.Int cv.cv_jobs);
      ("service_s", W.Float cv.cv_service_s);
      ("cache_hits", W.Int cv.cv_cache_hits);
      ("cache_misses", W.Int cv.cv_cache_misses);
    ]

let response_to_json r =
  let v =
    match r with
    | Accepted { job; position } ->
        W.Obj
          [ ("op", W.String "accepted"); ("job", W.String job); ("position", W.Int position) ]
    | Event { job; stream; data } ->
        W.Obj
          [
            ("op", W.String "event");
            ("job", W.String job);
            ("stream", W.String stream);
            ("data", W.String data);
          ]
    | Result p ->
        W.Obj
          ([
             ("op", W.String "result");
             ("job", W.String p.r_job);
             ("outcome", W.String p.r_outcome);
             ("report", W.String p.r_report);
             ("sat_queries", W.Int p.r_sat_queries);
             ("cache_hits", W.Int p.r_cache_hits);
             ("accepted", W.Int p.r_accepted);
           ]
          @ opt_str "netlist" p.r_netlist)
    | Status_report { draining; jobs; clients } ->
        W.Obj
          [
            ("op", W.String "status");
            ("draining", W.Bool draining);
            ("jobs", W.List (List.map job_view_to_wire jobs));
            ("clients", W.List (List.map client_view_to_wire clients));
          ]
    | Telemetry { stream; data } ->
        W.Obj
          [
            ("op", W.String "telemetry");
            ("stream", W.String stream);
            ("data", W.String data);
          ]
    | Metrics_text text -> W.Obj [ ("op", W.String "metrics"); ("text", W.String text) ]
    | Drained { completed } ->
        W.Obj [ ("op", W.String "drained"); ("completed", W.Int completed) ]
    | Dumped { trace; text } ->
        W.Obj
          [ ("op", W.String "dumped"); ("trace", W.String trace); ("text", W.String text) ]
    | Ok_resp -> W.Obj [ ("op", W.String "ok") ]
    | Error_msg m -> W.Obj [ ("op", W.String "error"); ("message", W.String m) ]
  in
  W.to_string v

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let req_str k v =
  match W.str_field k v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or mistyped field %S" k)

let req_int k v =
  match W.int_field k v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or mistyped field %S" k)

let req_bool k v =
  match W.bool_field k v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "missing or mistyped field %S" k)

(* Optional fields distinguish absent (None) from present-but-mistyped
   (error): a submit carrying jobs:"four" should be rejected, not have its
   worker cap silently dropped. *)
let opt_of k conv v =
  match W.member k v with
  | None | Some W.Null -> Ok None
  | Some x -> (
      match conv x with
      | Some y -> Ok (Some y)
      | None -> Error (Printf.sprintf "mistyped field %S" k))

let decode_submit v =
  let* client = req_str "client" v in
  let* kind_s = req_str "kind" v in
  let* kind =
    match kind_of_string kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown job kind %S" kind_s)
  in
  let* name = req_str "name" v in
  let* netlist = req_str "netlist" v in
  let* static_filter = req_bool "static_filter" v in
  let* jobs = opt_of "jobs" W.to_int v in
  let* max_conflicts = opt_of "max_conflicts" W.to_int v in
  let* max_seconds = opt_of "max_seconds" W.to_float v in
  let* sat_mode = opt_of "sat_mode" W.to_str v in
  let* q_max = opt_of "q_max" W.to_int v in
  let* p1 = opt_of "p1" W.to_float v in
  if client = "" then Error "empty client name"
  else if name = "" then Error "empty job name"
  else
    Ok
      (Submit
         {
           client;
           kind;
           name;
           netlist;
           limits = { jobs; max_conflicts; max_seconds };
           static_filter;
           sat_mode;
           q_max;
           p1;
         })

let request_of_json s =
  let* v = W.parse s in
  let* op = req_str "op" v in
  match op with
  | "submit" -> decode_submit v
  | "status" ->
      let* job = opt_of "job" W.to_str v in
      Ok (Status job)
  | "await" ->
      let* job = req_str "job" v in
      Ok (Await job)
  | "cancel" ->
      let* job = req_str "job" v in
      Ok (Cancel job)
  | "drain" -> Ok Drain
  | "metrics" -> Ok Metrics
  | "telemetry_sub" ->
      let* t_spans = req_bool "spans" v in
      let* t_metrics = req_bool "metrics" v in
      let* t_families =
        match W.member "families" v with
        | None | Some W.Null -> Ok []
        | Some (W.List items) ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match W.to_str item with
                | Some s -> Ok (s :: acc)
                | None -> Error "mistyped entry in \"families\"")
              (Ok []) items
            |> Result.map List.rev
        | Some _ -> Error "mistyped field \"families\""
      in
      let* t_interval_ms = opt_of "interval_ms" W.to_int v in
      Ok (Telemetry_sub { t_spans; t_metrics; t_families; t_interval_ms })
  | "dump" -> Ok Dump
  | other -> Error (Printf.sprintf "unknown request op %S" other)

let decode_job_view v =
  let* jv_id = req_str "id" v in
  let* jv_client = req_str "client" v in
  let* kind_s = req_str "kind" v in
  let* jv_kind =
    match kind_of_string kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown job kind %S" kind_s)
  in
  let* jv_name = req_str "name" v in
  let* state_s = req_str "state" v in
  let* jv_state =
    match state_of_string state_s with
    | Some st -> Ok st
    | None -> Error (Printf.sprintf "unknown job state %S" state_s)
  in
  let* jv_detail = req_str "detail" v in
  Ok { jv_id; jv_client; jv_kind; jv_name; jv_state; jv_detail }

let decode_client_view v =
  let* cv_client = req_str "client" v in
  let* cv_jobs = req_int "jobs" v in
  let* cv_service_s =
    match W.float_field "service_s" v with
    | Some f -> Ok f
    | None -> Error "missing or mistyped field \"service_s\""
  in
  let* cv_cache_hits = req_int "cache_hits" v in
  let* cv_cache_misses = req_int "cache_misses" v in
  Ok { cv_client; cv_jobs; cv_service_s; cv_cache_hits; cv_cache_misses }

let decode_list k decode v =
  match W.member k v with
  | Some (W.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* x = decode item in
          Ok (x :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "missing or mistyped field %S" k)

let response_of_json s =
  let* v = W.parse s in
  let* op = req_str "op" v in
  match op with
  | "accepted" ->
      let* job = req_str "job" v in
      let* position = req_int "position" v in
      Ok (Accepted { job; position })
  | "event" ->
      let* job = req_str "job" v in
      let* stream = req_str "stream" v in
      let* data = req_str "data" v in
      Ok (Event { job; stream; data })
  | "result" ->
      let* r_job = req_str "job" v in
      let* r_outcome = req_str "outcome" v in
      let* r_report = req_str "report" v in
      let* r_sat_queries = req_int "sat_queries" v in
      let* r_cache_hits = req_int "cache_hits" v in
      let* r_accepted = req_int "accepted" v in
      let* r_netlist = opt_of "netlist" W.to_str v in
      Ok (Result { r_job; r_outcome; r_report; r_sat_queries; r_cache_hits; r_accepted; r_netlist })
  | "status" ->
      let* draining = req_bool "draining" v in
      let* jobs = decode_list "jobs" decode_job_view v in
      let* clients = decode_list "clients" decode_client_view v in
      Ok (Status_report { draining; jobs; clients })
  | "telemetry" ->
      let* stream = req_str "stream" v in
      let* data = req_str "data" v in
      Ok (Telemetry { stream; data })
  | "metrics" ->
      let* text = req_str "text" v in
      Ok (Metrics_text text)
  | "drained" ->
      let* completed = req_int "completed" v in
      Ok (Drained { completed })
  | "dumped" ->
      let* trace = req_str "trace" v in
      let* text = req_str "text" v in
      Ok (Dumped { trace; text })
  | "ok" -> Ok Ok_resp
  | "error" ->
      let* message = req_str "message" v in
      Ok (Error_msg message)
  | other -> Error (Printf.sprintf "unknown response op %S" other)
