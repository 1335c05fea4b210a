(** Actions: named events with a structured payload.

    The paper's action universe is an abstract countable set partitioned at
    each state into input, output and internal actions (Definition 2.1). An
    action here is a name plus a {!Value.t} payload, so "send(m)" for every
    message [m] is a family of actions sharing a name — exactly how the
    crypto and dynamic examples use them. *)

type t = { name : string; payload : Value.t }

val make : ?payload:Value.t -> string -> t
val name : t -> string
val payload : t -> Value.t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_bits : t -> Cdse_util.Bits.t
(** The ⟨a⟩ encoding of Section 4.1. *)

val of_bits : Cdse_util.Bits.t -> t

val with_name : (string -> string) -> t -> t
(** Rename by transforming the action name, keeping the payload. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
