(** Hierarchical spans: named, timed regions recorded into per-domain
    buffers and exported as Chrome trace events.

    A span is opened and closed on the same domain; nesting follows the
    call stack, so the begin/end events of one domain are always properly
    bracketed ([with_] guarantees the close even on exceptions).  Each
    domain appends to its own buffer — no cross-domain contention on the
    hot path — and {!drain} merges the buffers for export.  Buffers are
    recycled: the one of an exited domain passes to the next new domain,
    so their number is the peak number of live domains.

    Recording is off by default.  When off, {!with_} runs its thunk with
    no clock reads and no allocation beyond the closure, preserving the
    result-transparency invariant: spans observe the computation, never
    steer it. *)

type event = {
  name : string;
  begin_ns : int64;
  end_ns : int64;
  begin_seq : int;
  end_seq : int;
      (** per-domain program-order ticks at begin/end — the exporter
          orders the B/E stream by these, because the clock is too coarse
          to order fast spans (many begin and end on the same tick) *)
  tid : int;
      (** the recording domain's state slot: the [Domain.self] of the
          first domain that owned it.  A domain that exits hands its slot,
          tid included, to the next domain that records, so two live
          domains never share a tid but a tid may outlive its domain *)
  depth : int;  (** nesting depth on that domain at begin time, 0-based *)
  attrs : (string * string) list;
}

val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Flight recorder}

    A second consumer of the same span stream: when the recorder is on,
    every completed span is also written into a fixed per-domain ring
    (1024 entries) that wraps instead of growing, so the most
    recent window is always available for a post-mortem dump at near-zero
    steady-state cost.  Independent of {!set_enabled}: either switch
    activates span collection; only {!set_enabled} feeds {!drain}. *)

val set_recorder : bool -> unit

val recorder : unit -> bool

type open_info = {
  oi_name : string;
  oi_begin_ns : int64;
  oi_depth : int;
  oi_attrs : (string * string) list;
}

val recent : unit -> event list
(** The flight-recorder window: the most recent completed spans of every
    domain, ordered like {!drain} but without clearing anything. *)

val open_stacks : unit -> (int * open_info list) list
(** Per-domain open-span stacks (innermost first) at the instant of the
    call — a racy diagnostic snapshot, never blocking the owner. *)

val last_failures : unit -> (int * open_info list) list
(** Per-domain open-span stacks captured at the innermost frame of the
    most recent exceptional unwind through {!with_}. *)

val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f ()] inside a span named [name].  When
    recording is disabled this is just [f ()]. *)

val note : string -> string -> unit
(** Attach a key/value attribute to the innermost open span on the
    calling domain (no-op when disabled or outside any span). *)

val drain : unit -> event list
(** Completed events from every domain's buffer, ordered by [begin_ns]
    (ties broken by tid, then [begin_seq]), and clear the buffers. *)

val dropped : unit -> int
(** Events discarded because a per-domain buffer hit its cap. *)

val reset : unit -> unit
(** Clear all buffers, rings, and failure captures; open-span stacks are
    untouched — test isolation. *)
