(** Append-only journals of checksummed records: the one on-disk log
    format of the repository.  The campaign checkpoint
    ([Dfm_core.Checkpoint]), the verdict store's disk tier
    ([Dfm_incr.Store]) and the serve daemon's job ledger
    ([Dfm_serve.Daemon]) are journals; the serve protocol's frames
    ([Dfm_serve.Frame]) carry one record each.

    {b File format.}  An 8-byte magic naming the owner and its version,
    then records:

    {v
      4 bytes    payload length, u32le, 1 <= len <= max_record
      len bytes  payload, opaque to the journal
      8 bytes    checksum, u64le: Hash64.mix (Hash64.of_string payload) (Hash64.of_int len)
    v}

    {b Loading} never raises.  It returns every intact payload in file
    order and says where the first damaged record was.  A record with an
    in-range length but a bad checksum is skipped alone; a bad length, a
    torn tail (a kill mid-append) or a wrong magic ends the file.  Owners
    bump their magic when their payload layout changes, so a file of an
    older version loads as a wrong magic: empty, with one record dropped.

    {b Compaction.}  The owner decides which loaded records it keeps and
    hands them to {!open_}.  When they differ from the file, the file is
    rewritten atomically (temp file, then rename) before the first
    append, so a kill during recovery loses nothing.

    {b Appends} are buffered until {!flush}.  Each passes the owner's
    failpoint sites through {!Failpoint.guard_write}, so tests can inject
    raises, I/O errors, delays and torn writes.  After a failed append the
    file may end in a torn record: close the journal and open it again
    (which compacts the tail) instead of appending behind the damage. *)

val max_record : int
(** Largest payload, 64 MiB. *)

val overhead : int
(** Bytes a record adds around its payload: length prefix and checksum. *)

(** {1 Record codec} *)

val encode : string -> string
(** The record bytes for one payload.
    @raise Invalid_argument when the payload is empty or over
    {!max_record}. *)

type decoded =
  | Record of string * int  (** the payload, and the offset just past it *)
  | Short  (** the bytes end inside the record *)
  | Bad_length of int  (** the length prefix is out of range *)
  | Bad_checksum of int
      (** the framing is intact but the content is damaged; the offset is
          just past the record *)

val decode : string -> int -> decoded
(** [decode s off] reads the record that starts at [off] in [s].  A bad
    length is reported as soon as the 4 prefix bytes are present. *)

(** {1 Journal files} *)

type loaded = {
  records : string list;  (** every intact payload, in file order *)
  prefix : int;  (** how many of [records] precede the first damage *)
  dropped : int;
      (** damaged records: each skipped one, plus one when damage ended
          the file *)
  clean : bool;
      (** the file is exactly the magic followed by [records]; false for a
          missing or empty file *)
}

val load : magic:string -> string -> loaded
(** Never raises: a missing, unreadable or empty file loads as no records
    with nothing dropped (and {!open_} then rewrites it). *)

val intact_prefix : loaded -> string list
(** The records before the first damage: what an owner whose records are
    ordered keeps. *)

type t

val open_ : ?sites:string list -> magic:string -> keep:string list -> loaded -> string -> t
(** [open_ ~magic ~keep loaded path] opens [path] for appending after
    making the file hold exactly [keep] (rewritten atomically unless
    [loaded] is clean and equal to [keep]).  [sites] are the failpoint
    sites every append passes, in order.
    @raise Sys_error when the file cannot be rewritten or opened. *)

val append : t -> string -> unit
(** Buffer one record.
    @raise Invalid_argument as {!encode}.
    @raise Sys_error or [Failpoint.Injected] when an armed site fires. *)

val flush : t -> unit
(** @raise Sys_error on I/O failure. *)

val close : t -> unit
(** Flush what can be flushed and close; never raises. *)
