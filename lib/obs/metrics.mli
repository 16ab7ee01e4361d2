(** Process-wide metrics registry: counters, gauges, and histograms with
    fixed log2 buckets.

    Handles are registered once (first call wins; re-registering the same
    name/label pair returns the same handle) and updated lock-free with
    atomics, so hot paths — SAT inner loops, batch tasks — can bump them
    from any domain.  Instrumented libraries register their inventory at
    module initialization, which keeps the exposition stable: a metric
    family is present (at zero) even in runs that never touch it.

    All values are integers; durations are recorded in nanoseconds.  The
    registry is never reset, so every counter is monotonic and a delta of
    one over a region is exact.  Some libraries read their own counters
    back as process totals ([Solver.totals], [Cert.totals],
    [Atpg.sat_seconds]); nothing reads a metric into an engine decision,
    so collection cannot change a campaign result. *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Monotonically non-decreasing.  Registration rejects invalid label
    names and duplicate label keys with [Invalid_argument] (all kinds). *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram : ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Fixed buckets at powers of two: [le = 1, 2, 4, …, 2^39, +Inf]. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val set : gauge -> int -> unit

val add : gauge -> int -> unit

val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Record one (non-negative; clamped) sample. *)

val histogram_sum : histogram -> int
(** The sum of every sample recorded so far. *)

(** {1 Timing switch}

    Duration histograms need two clock reads per sample; call sites guard
    those with {!timing_enabled} so a run without exporters skips the
    system calls entirely.  Plain counter/gauge bumps stay on always —
    they are single atomic adds. *)

val set_timing_enabled : bool -> unit
val timing_enabled : unit -> bool

(** {1 Ambient attribution}

    A process-global label context (tenant, job id, …) that attributed
    counters also bump under.  The serve daemon sets it around each job it
    executes; engine code stays attribution-agnostic.  Output-only: the
    context selects which labeled series a bump lands on, never what the
    engine computes. *)

val set_attribution : (string * string) list -> unit
(** Install the ambient label context ([[]] clears it).  Label names are
    validated like registration labels.  Installing a non-empty context
    eagerly registers every attributed counter's labeled series (at
    zero), so each tenant's families appear in the exposition even for
    work it never did. *)

type attributed
(** A counter that always bumps its unlabeled base series and, while an
    attribution context is installed, also a lazily-registered series
    carrying the context labels. *)

val attributed_counter : ?help:string -> string -> attributed

val incr_attr : ?by:int -> attributed -> unit

val attr_base : attributed -> counter
(** The unlabeled base series (for tests and totals). *)

(** {1 Snapshot (for exporters and tests)} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of {
      buckets : (float * int) array;  (** (le, cumulative count), +Inf last *)
      sum : int;
      count : int;
    }

type metric = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

val snapshot : unit -> metric list
(** Every registered metric, sorted by name then labels. *)

val find_value : ?labels:(string * string) list -> string -> value option
