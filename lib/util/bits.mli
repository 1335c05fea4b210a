(** Immutable bit strings with self-delimiting codes.

    This module is the substrate for the bit-string representations
    [⟨q⟩, ⟨a⟩, ⟨tr⟩, ⟨C⟩] of Section 4.1 of the paper ("We adopt a standard
    bit-representation ..."). All encodings used by the bounded layer
    ({!Cdse_bounded}) bottom out here. Bit strings are packed MSB-first into
    bytes, and the padding bits after the last bit of the last byte are
    always zero, so {!equal}, {!compare} and {!to_string} work on the
    packed bytes directly. A value is immutable once built; encoders build
    one in a single pass with a {!Writer}. *)

type t
(** An immutable sequence of bits. *)

val empty : t

val length : t -> int
(** Number of bits. *)

val get : t -> int -> bool
(** [get b i] is bit [i] (0-based). Raises [Invalid_argument] if out of
    range. *)

val of_bool_list : bool list -> t
val to_bool_list : t -> bool list

val singleton : bool -> t

val append : t -> t -> t
(** [append a b] is the concatenation [a · b]. O(|a| + |b|). *)

val concat : t list -> t
(** Concatenation of the whole list, linear in the total length (one
    {!Writer} pass, not a fold of {!append}). *)

val of_int : width:int -> int -> t
(** [of_int ~width n] is the [width]-bit big-endian encoding of
    [n land (2^width - 1)]. Raises [Invalid_argument] on negative [width] or
    [width > 62]. *)

val to_int : t -> int
(** Big-endian value of the whole bit string. Raises [Invalid_argument] when
    longer than 62 bits. *)

val encode_nat : int -> t
(** Self-delimiting (Elias-gamma style) encoding of a natural number, usable
    as a prefix of a longer code. Raises [Invalid_argument] on negatives
    and on [max_int]. *)

val of_string : string -> t
(** [of_string "0101"] parses a literal bit string. Raises
    [Invalid_argument] on characters other than ['0'] and ['1']. *)

val to_string : t -> string
(** Literal rendering, e.g. ["0101"]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Shorter strings first; at equal length, lexicographic on the bits
    (the order of [String.compare] on the {!to_string}s). *)

val pp : Format.formatter -> t -> unit

(** Growable MSB-first output buffer, the dual of {!Reader}: encoders
    write a whole value into one writer and take its {!contents} once, so
    the cost is linear in the encoding's length however many pieces it
    has. Every constructor above ({!append}, {!concat}, {!of_int},
    {!encode_nat}, {!of_string}, ...) is a wrapper over it. *)
module Writer : sig
  type bits := t
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty writer; [capacity] (in bits, default 256) is only a size
      hint. *)

  val bit : t -> bool -> unit

  val int : width:int -> t -> int -> unit
  (** Appends what {!of_int} returns. Raises [Invalid_argument] on
      negative [width] or [width > 62]. *)

  val nat : t -> int -> unit
  (** Appends what {!encode_nat} returns. Raises [Invalid_argument] on a
      negative [n] or on [max_int], which has no encoding. *)

  val bits : t -> bits -> unit
  (** Appends a bit string. *)

  val contents : t -> bits
  (** The bits written so far, as an immutable value; the writer stays
      usable. *)
end

(** Sequential decoding cursor over a bit string. *)
module Reader : sig
  type bits := t
  type t

  val make : bits -> t
  val read_bit : t -> bool
  (** Raises [Invalid_argument] when exhausted. *)

  val read_int : width:int -> t -> int
  val read_nat : t -> int
  (** Inverse of {!encode_nat}. *)

  val read_bits : int -> t -> bits
  val at_end : t -> bool
end
