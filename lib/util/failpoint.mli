(** Deterministic fault-injection points for resilience testing.

    A failpoint is a named site in production code ([check]/[hit] calls)
    that normally does nothing.  Tests (or the CLI's [--failpoint] flag and
    the [REPRO_FAILPOINTS] environment variable) arm a site with an
    {!action} and a firing schedule; the site then raises, injects an I/O
    error, truncates a write, or delays — at exactly the configured hits.

    Everything is deterministic: firing is decided by per-site hit counters
    ([after]/[times]) and, when a probability is given, by a dedicated
    splitmix64 stream seeded per site — never by wall-clock or global
    state.  Sites may be hit from worker domains; the registry is
    mutex-protected, and the disarmed fast path is one unsynchronized
    boolean load. *)

type action =
  | Raise          (** raise {!Injected} at the site *)
  | Io_error       (** raise [Sys_error] as a disk/OS failure would *)
  | Partial_write  (** sites that write records truncate the write, then
                       fail as [Io_error]; plain {!hit} sites treat it as
                       [Io_error] *)
  | Delay of float (** sleep this many seconds, then continue *)

exception Injected of string
(** Raised by an armed [Raise] site; the payload is the site name. *)

val enable :
  ?after:int -> ?times:int -> ?prob:float -> ?seed:int -> string -> action -> unit
(** Arm site [name].  The site's first [after] hits pass through (default
    0); it then fires on up to [times] hits (default: every hit), each
    further gated by [prob] (default: always) drawn from a stream seeded
    with [seed] (default 0).  Re-enabling a name replaces its schedule and
    resets its counters. *)

val disable : string -> unit

val clear : unit -> unit
(** Disarm every site and forget all counters. *)

val known_sites : string list
(** Every site the program passes: [checkpoint.append], [parallel.task],
    [sat.solve], [serve.accept_emfile], [serve.conn], [serve.ledger],
    [store.append] and [store.enospc]. *)

val parse : string -> (unit, string) result
(** Parse-and-enable one CLI/env spec:
    [NAME=ACTION[:after=N][:times=N][:prob=P][:seed=N]] with [NAME] one of
    {!known_sites} and [ACTION] one of [raise], [io], [partial],
    [delay=SECONDS].  Any other name is refused, so a misspelt site cannot
    silently arm nothing; {!enable} takes any name. *)

val parse_env : unit -> (unit, string) result
(** Apply every comma/semicolon-separated spec in [REPRO_FAILPOINTS]. *)

val check : string -> action option
(** Count one hit at [name]; return the action iff the site fires now.
    Pure observation, never raises. *)

val hit : string -> unit
(** {!check}, then act: [Raise] raises {!Injected}, [Io_error] and
    [Partial_write] raise [Sys_error], [Delay] sleeps. *)

val guard_write : string -> write:(string -> int -> int -> unit) -> string -> unit
(** The one torn-write site: call it just before writing [s].  Like {!hit},
    except that [Partial_write] first writes a strict prefix of [s] (half,
    at least one byte) through [write s off len], then raises [Sys_error].
    Returning normally means the caller writes all of [s] itself. *)

val hit_count : string -> int
(** How many times [name] was reached since it was (re)enabled; 0 for a
    site never armed (disarmed sites do not count hits). *)

val any_active : unit -> bool
