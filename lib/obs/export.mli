(** Exporters: Chrome trace-event JSON (loadable in Perfetto /
    [chrome://tracing]), Prometheus text exposition, and a compact JSON
    metrics snapshot for the bench harness.

    Exporting reads the span buffers and the metrics registry; it never
    writes anything back, so emitting (or not emitting) these artifacts
    cannot change a campaign result. *)

val chrome_trace_string : Span.event list -> string
(** [{"traceEvents":[...]}] with paired ["B"]/["E"] duration events,
    timestamps in microseconds, [tid] = the recording domain's slot
    ({!Span.event}), [pid] = 1.
    Within each tid the B/E stream is properly nested. *)

val write_chrome_trace : string -> Span.event list -> unit
(** [write_chrome_trace path events] — write atomically via a temp file
    and rename. *)

val prometheus_string : Metrics.metric list -> string
(** Text exposition format: [# HELP]/[# TYPE] per family, histogram
    [_bucket{le=...}]/[_sum]/[_count] series, no duplicate
    metric/label pairs. *)

val write_prometheus : string -> Metrics.metric list -> unit

val json_escape_into : Buffer.t -> string -> unit
(** Append a string escaped for inclusion inside JSON double quotes: the
    one JSON string escaper of the repository. *)

val json_escape : string -> string
(** {!json_escape_into} to a fresh string. *)

val prom_label_escape : string -> string
(** Escape a string for inclusion inside a Prometheus label value
    (backslash, double quote, newline). *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] — temp file + rename, never a torn file. *)

(** {1 Streaming encoders}

    Chrome "X" (complete) events: one self-contained object per span with
    no bracketing requirement — the right shape for streaming, where a
    parent span completes in a later batch than its children. *)

val complete_events_ndjson : Span.event list -> string
(** One event object per line — the payload of a telemetry span frame. *)

val complete_trace_string : Span.event list -> string
(** [{"traceEvents":[...]}] of ["X"] events — the flight-recorder dump
    format. *)

val filter_families :
  string list -> Metrics.metric list -> Metrics.metric list
(** Keep metrics whose name starts with any given prefix ([[]] keeps
    all). *)

val prometheus_now : unit -> string
(** The current metrics registry as Prometheus text exposition. *)
