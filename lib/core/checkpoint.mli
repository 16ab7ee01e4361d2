(** Append-only campaign journal: kill/resume for {!Resynth.run}.

    The journal records the progress of one resynthesis campaign — every
    rejected candidate as an {!event} and every accepted design point as an
    {!accept} carrying the accepted netlist (structural text), the region
    it remapped, the accepted step count, the campaign's {!effort} record
    and the loop position.  The
    resumption contract built on it:

    {e kill the process at any instant, attach again with [resume = true],
    and the completed campaign's final design, trace and counters are
    bit-identical to the uninterrupted run.}

    This works because {!Resynth.run} is deterministic and its phase loops
    are fixpoint iterations: deriving each accept again from its region
    and boundary cell, like the live run, and implementing it through the
    incremental [Design.implement] chain with its parent's verdicts carried
    ({!Carry}), reconstructs the exact design state, and re-entering the
    loop at the journaled position re-derives precisely the work that
    followed the last accept (whose journal tail is truncated at attach
    time so nothing is duplicated).

    On disk it is a {!Dfm_util.Journal} (magic [DFMCK05]; the format,
    loading and compaction rules are described there) of marshalled
    {!entry} records.  Records are ordered, so attach keeps only the intact
    prefix before the first damaged record.

    Appends pass the [checkpoint.append] {!Dfm_util.Failpoint} site, which
    is how the crash-matrix test kills a campaign at every record
    boundary (including torn writes). *)

type event = {
  ev_q : int;
  ev_phase : int;
  ev_cell : string option;
  ev_action : string;
  ev_u : int;
  ev_u_internal : int;
  ev_smax : int;
  ev_delay : float;
  ev_power : float;
}
(** One entry of a campaign's trace; {!Resynth.event} re-exports it, and
    documents the fields. *)

type effort = {
  implement_calls : int;
  sat_queries : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  escalation_retries : int;
  aborted_residual : int;
}
(** A campaign's effort; {!Resynth.effort} re-exports it, and documents the
    fields. *)

type accept = {
  ev : event;                (** the accept event itself *)
  netlist : string;          (** accepted netlist, [Netlist_io] text *)
  region : int list;
      (** the gates of the previous design point that the accepted netlist
          remapped: a replay remaps them again, with the cells
          [ev.ev_cell] leaves, and must get [netlist] *)
  accepted : int;            (** accepted steps {e after} this accept *)
  effort : effort;           (** the campaign's effort as of this accept *)
  p2 : float;                (** phase-2 [S_max] bound in force (0 in phase 1) *)
}

type entry = Header of string | Event of event | Accept of accept

exception Error of string
(** Raised when attaching to a journal written by a different run
    configuration (header mismatch), or on use after {!close};
    {!Resynth.run} raises it when a journaled accept does not rebuild. *)

type t

val attach : ?resume:bool -> header:string -> string -> t * entry list
(** [attach ~header path] opens (creating if needed) the journal at [path]
    for appending and returns the surviving entries to replay — [[]] for a
    fresh campaign.  With [resume = false] (or when no journal exists) any
    existing journal is truncated and the campaign starts fresh.  With
    [resume = true] the intact prefix of the file is loaded, the tail after
    the last {!Accept} is dropped (that work is re-derived
    deterministically), and the compacted journal is rewritten if anything
    was dropped; damage is logged as one warning.  The returned list never
    contains [Header].
    @raise Error when the journal's header differs from [header].
    @raise Sys_error when [path] cannot be created or written. *)

val append_event : t -> event -> unit
(** Journal one non-accepted design point.  Flushes.  Raises on I/O failure
    — a checkpoint that cannot persist must be loud, not silent. *)

val append_accept : t -> accept -> unit
(** Journal one accepted design point.  Flushes; same failure contract. *)

val close : t -> unit
