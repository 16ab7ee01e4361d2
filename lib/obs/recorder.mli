(** Flight recorder: an always-affordable window of recent spans and log
    records, dumpable as a post-mortem at any moment.

    Arming the recorder turns on {!Span.set_recorder} (fixed per-domain
    rings of completed spans) and {!Log.set_retain} (a fixed ring of
    recent log records).  A {!dump} writes two atomic artifacts into a
    directory: a Chrome-trace JSON of the retained window (still-open
    spans synthesized as complete events tagged [open=true]) and a text
    post-mortem (reason, failing span stacks from
    {!Span.last_failures}, open stacks, recent logs, full metrics
    exposition).

    Output-only: arming, dumping, or disabling the recorder never changes
    a campaign result. *)

val set_enabled : bool -> unit

val enabled : unit -> bool

val dump : dir:string -> reason:string -> (string * string, string) result
(** [dump ~dir ~reason] writes [flight-<pid>-<n>.trace.json] and
    [flight-<pid>-<n>.txt] under [dir] (created if missing), atomically.
    Returns the two paths. *)
