let json_escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  json_escape_into buf s;
  Buffer.contents buf

(* --- Chrome trace events ------------------------------------------------ *)

type phase_ev = {
  p_ts : int64;  (* ns *)
  p_seq : int;  (* the domain's program-order tick for this B or E *)
  p_kind : int;  (* 1 = B, 0 = E *)
  p_name : string;
  p_tid : int;
  p_attrs : (string * string) list;
}

let chrome_trace_string events =
  let phases =
    List.concat_map
      (fun (e : Span.event) ->
        [
          {
            p_ts = e.begin_ns;
            p_seq = e.begin_seq;
            p_kind = 1;
            p_name = e.name;
            p_tid = e.tid;
            p_attrs = e.attrs;
          };
          {
            p_ts = e.end_ns;
            p_seq = e.end_seq;
            p_kind = 0;
            p_name = e.name;
            p_tid = e.tid;
            p_attrs = [];
          };
        ])
      events
  in
  (* Sort per tid by the per-domain sequence number: that reproduces the
     domain's exact program order, which by construction is a properly
     bracketed B/E stream.  (The clock alone cannot: fast sibling spans
     begin and end on the same tick, and no (ts, depth) tie-break can tell
     "close a, then open b" from "open b inside a".)  Sequence order also
     never contradicts the timestamps — the clock is non-decreasing within
     a domain. *)
  let phases =
    List.sort
      (fun a b ->
        match compare a.p_tid b.p_tid with
        | 0 -> compare a.p_seq b.p_seq
        | c -> c)
      phases
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char buf ',';
      let us = Int64.to_float p.p_ts /. 1e3 in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
           (json_escape p.p_name)
           (if p.p_kind = 1 then "B" else "E")
           us p.p_tid);
      if p.p_attrs <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          p.p_attrs;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    phases;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* Chrome "X" (complete) events: one self-contained object per span, no
   bracketing requirement — the right shape for streaming, where a parent
   span completes in a later batch than its children and a B/E encoding of
   one batch alone would be unbalanced. *)
let complete_event_string (e : Span.event) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
       (json_escape e.Span.name)
       (Int64.to_float e.Span.begin_ns /. 1e3)
       (Int64.to_float (Int64.sub e.Span.end_ns e.Span.begin_ns) /. 1e3)
       e.Span.tid);
  Buffer.add_string buf ",\"args\":{";
  List.iteri
    (fun j (k, v) ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    (("depth", string_of_int e.Span.depth) :: e.Span.attrs);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let complete_events_ndjson events =
  String.concat "" (List.map (fun e -> complete_event_string e ^ "\n") events)

let complete_trace_string events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (complete_event_string e))
    events;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Sys.rename tmp path

let write_chrome_trace path events = write_atomic path (chrome_trace_string events)

(* --- Prometheus text exposition ----------------------------------------- *)

let prom_label_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_label_escape v))
             labels)
      ^ "}"

let le_string le =
  if Float.is_integer le && Float.abs le < 1e15 then
    Printf.sprintf "%.0f" le
  else if le = infinity then "+Inf"
  else Printf.sprintf "%g" le

let prometheus_string (metrics : Metrics.metric list) =
  let buf = Buffer.create 4096 in
  let seen_family = Hashtbl.create 16 in
  List.iter
    (fun (m : Metrics.metric) ->
      if not (Hashtbl.mem seen_family m.name) then begin
        Hashtbl.add seen_family m.name ();
        if m.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" m.name m.help);
        let ty =
          match m.value with
          | Metrics.Counter _ -> "counter"
          | Metrics.Gauge _ -> "gauge"
          | Metrics.Histogram _ -> "histogram"
        in
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" m.name ty)
      end;
      match m.value with
      | Metrics.Counter v | Metrics.Gauge v ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" m.name (render_labels m.labels) v)
      | Metrics.Histogram { buckets; sum; count } ->
          Array.iter
            (fun (le, c) ->
              let labels = m.labels @ [ ("le", le_string le) ] in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name (render_labels labels) c))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %d\n" m.name (render_labels m.labels) sum);
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.name (render_labels m.labels) count))
    metrics;
  Buffer.contents buf

let write_prometheus path metrics = write_atomic path (prometheus_string metrics)

(* --- Live exposition (serve daemon) ------------------------------------- *)

let filter_families families (metrics : Metrics.metric list) =
  match families with
  | [] -> metrics
  | fs ->
      List.filter
        (fun (m : Metrics.metric) ->
          List.exists (fun f -> String.starts_with ~prefix:f m.Metrics.name) fs)
        metrics

let prometheus_now () = prometheus_string (Metrics.snapshot ())
