(** Length-framed, checksummed protocol frames.

    Every protocol message travels as one frame: the 4-byte magic
    ["DFS1"], then one {!Dfm_util.Journal} record (length prefix, payload,
    checksum; the record layout is described there) whose payload is a
    JSON document, opaque to the frame layer.

    The decoder is incremental: bytes arrive in arbitrary chunks (the
    daemon reads whatever [select] offers) and complete frames are pulled
    out as they materialize.  Any violation — bad magic, zero/oversized
    length, checksum mismatch — is terminal for the connection: the
    decoder latches the error and refuses further input, which is how
    "fail closed" is enforced at the lowest layer.

    Writes pass the [serve.conn] {!Dfm_util.Failpoint} site.  [Io_error]
    injects a failed send (a dropped connection), [Partial_write] writes a
    torn prefix of the frame and then fails — the crash-matrix-style serve
    tests use both to prove that a connection dying mid-frame never
    corrupts daemon state and is always detected by the peer's decoder. *)

val max_payload : int
(** Upper bound on one payload (64 MiB — netlists travel inline). *)

val encode : string -> string
(** The full frame bytes for one payload.
    @raise Invalid_argument when the payload is empty or oversized. *)

val write : Unix.file_descr -> string -> unit
(** [write fd payload] sends one frame with {!Unix.write}, retrying short
    writes.  Passes the [serve.conn] failpoint.  Raises [Sys_error] /
    [Unix.Unix_error] on a dead peer. *)

(** {1 Incremental decoding} *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed t buf n] appends the first [n] bytes of [buf]. *)

  val next : t -> (string option, string) result
  (** The next complete payload; [Ok None] when more bytes are needed.
      [Error] reports the first protocol violation; once returned, every
      further call returns the same error and fed bytes are discarded. *)

  val buffered : t -> int
  (** Bytes held but not yet consumed as frames. *)
end

val read : Decoder.t -> Unix.file_descr -> (string, string) result
(** Blocking read of the next frame through a persistent per-connection
    decoder (bytes beyond the frame stay buffered for the next call);
    [Error] describes a protocol violation or a closed connection.  Used
    by the synchronous client. *)
