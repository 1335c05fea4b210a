(** Universal value language for automaton states and action payloads.

    The paper treats states abstractly ("a countable set of states",
    Definition 2.1) together with a standard bit-string representation ⟨q⟩
    (Section 4). We realise both at once: every state and payload is a value
    of this small first-order term language, which carries a total order, a
    hash, and a canonical self-delimiting binary encoding. Composite automata
    use {!Pair}/{!List} states; configuration automata encode whole
    configurations as values (see {!Cdse_config.Config.to_value}). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Tag of string * t
      (** A labelled value, used to keep state spaces of distinct automata
          disjoint and encodings unambiguous. *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t
val tag : string -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val hash : t -> int
(** Hashes the value all the way down (up to 256 nodes), so values that
    differ only in a late member of a large configuration hash apart.
    Value-keyed tables use it; tables keyed by a pair of a value and
    something else hash the pair the same way in one call. *)

val to_bits : t -> Cdse_util.Bits.t
(** Canonical self-delimiting encoding — the ⟨q⟩ of Section 4.1. *)

val decode : Cdse_util.Bits.Reader.t -> t
(** Inverse of {!to_bits}; raises [Invalid_argument] on malformed input. *)

val of_bits : Cdse_util.Bits.t -> t
(** Decode a complete bit string; raises [Invalid_argument] if bits remain. *)

val bit_length : t -> int
(** [Bits.length (to_bits v)] — the size that the boundedness definitions
    (Def 4.1 item 1) constrain. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
