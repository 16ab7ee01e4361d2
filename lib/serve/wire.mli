(** Minimal JSON values for the serve protocol.

    The toolchain ships no JSON library, so the protocol carries its own
    reader/printer; the obs validator reads trace files with the same
    reader.  The subset is exactly what the protocol needs: objects, arrays, strings, booleans, null, and numbers
    (integers kept exact, anything else as float).  The printer emits no
    insignificant whitespace and escapes control characters, so a printed
    value always survives the frame layer byte-transparently. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

val parse : string -> (t, string) result
(** Strict parse of one JSON document; trailing non-whitespace, unknown
    escapes, unterminated literals and out-of-range nesting are errors.
    Never raises. *)

(** {1 Accessors}

    All return [None] on shape mismatch — protocol decoding treats a
    missing and a mistyped field identically. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on any other constructor. *)

val to_str : t -> string option

val to_int : t -> int option

val to_float : t -> float option
(** Accepts [Int] too (promoted). *)

val to_list : t -> t list option

val str_field : string -> t -> string option

val int_field : string -> t -> int option

val float_field : string -> t -> float option

val bool_field : string -> t -> bool option

val equal : t -> t -> bool
(** Structural equality with object fields compared order-sensitively
    (the printer is deterministic, so roundtrip tests can use this). *)
