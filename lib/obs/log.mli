(** Leveled, structured logger — the replacement for the bare
    [?log:(string -> unit)] callbacks that accreted through the codebase.

    A log record is a level, a message, and a list of key/value attributes.
    Records below the current level are dropped before the message string
    is even rendered to the sink; with no sink installed (the default)
    every record is dropped, making instrumented libraries silent no-ops.

    Sinks may be called from any domain; delivery is serialized
    internally.  Logging is an output-only side channel: nothing in the
    engines reads it back, so enabling or disabling it cannot change a
    campaign result (the result-transparency invariant, DESIGN.md §8). *)

type level = Error | Warn | Info | Debug

val level_to_string : level -> string

val level_of_string : string -> level option
(** Case-insensitive; accepts [error]/[warn]/[warning]/[info]/[debug]. *)

type record = {
  level : level;
  message : string;
  attrs : (string * string) list;
}

val set_level : level -> unit
(** Records strictly below this level are dropped (default [Warn]). *)

val would_log : level -> bool
(** True when a record at [level] would reach the sink — the guard for
    call sites that would otherwise build an expensive message. *)

val set_sink : (record -> unit) option -> unit
(** Install (or remove) the delivery sink.  [None] (the default) drops
    everything. *)

val stderr_sink : record -> unit
(** A ready-made sink: one [level: message k=v ...] line per record. *)

val set_retain : bool -> unit
(** Flight-recorder retention: when on, every record passing the level
    gate is also kept in a fixed-size process-wide ring (newest wins),
    whether or not a sink is installed. *)

val recent : unit -> record list
(** The retained window, oldest first. *)

val log : ?attrs:(string * string) list -> level -> string -> unit

val error : ?attrs:(string * string) list -> string -> unit
val warn : ?attrs:(string * string) list -> string -> unit
val info : ?attrs:(string * string) list -> string -> unit
val debug : ?attrs:(string * string) list -> string -> unit

val logf :
  ?attrs:(string * string) list ->
  level ->
  ('a, unit, string, unit) format4 ->
  'a
(** [Printf]-style convenience; the format is rendered only when
    {!would_log} holds. *)
