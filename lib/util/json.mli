(** Minimal JSON values for the serve wire protocol, traces and bench files.

    Self-contained (the repo deliberately carries no JSON dependency).
    Numbers are floats on the wire; every exact quantity of the protocol
    (rationals, state and action encodings) travels as a string, so
    nothing measure-relevant ever round-trips through floating point. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** Pre-rendered JSON, spliced verbatim by {!to_string}. Never
          produced by {!parse}; the payload must itself be valid JSON,
          compact on the wire. Lets the server reuse a reply body rendered
          once (the cache's render memo) without re-walking the value. *)

exception Parse_error of string

val parse : string -> t
(** Parse one complete JSON document. Raises {!Parse_error} with an offset
    diagnostic on malformed input (including trailing content). *)

val to_string : t -> string
(** Compact single-line rendering (no newlines — the wire protocol is
    newline-delimited) except for whitespace inside [Raw] payloads.
    Strings are escaped per RFC 8259; integral floats render without a
    fractional part. *)

(** {2 Accessors} — conveniences for picking apart parsed requests. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing field or a non-object. *)

val to_int : t -> int option
(** [Num f] with integral [f], [|f| <= 2^53]; [None] otherwise. *)
