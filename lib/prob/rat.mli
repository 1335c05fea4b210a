(** Exact rational arithmetic.

    Probabilities, statistical distances and the [ε] slack parameters of the
    implementation relations (Definitions 3.6, 4.12) are represented as exact
    rationals so that zero-distance claims (Lemma D.1: the forwarded
    scheduler achieves [ε = 0]) can be verified with [=] rather than a float
    tolerance. Values are kept normalized: [gcd(num, den) = 1], [den > 0],
    sign carried separately. *)

type t

val zero : t
val one : t
val half : t

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints num den]. Raises [Division_by_zero] when [den = 0]. *)

val make : sign:int -> num:Bignat.t -> den:Bignat.t -> t
(** Normalizing constructor; [sign] must be [-1], [0] or [1]. *)

val sign : t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Division_by_zero]. *)

val inv : t -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t
val sum : t list -> t

val is_zero : t -> bool
val is_proper_prob : t -> bool
(** [0 ≤ x ≤ 1]. *)

val pow : t -> int -> t
(** Integer powers; negative exponents invert. *)

val to_float : t -> float
val to_bits : t -> Cdse_util.Bits.t
(** Self-delimiting encoding (sign bit, then length-prefixed numerator and
    denominator): part of the transition encodings ⟨tr⟩ of Section 4.1. *)

val of_bits : Cdse_util.Bits.t -> t
(** Inverse of {!to_bits}; raises [Invalid_argument] on malformed input and
    [Division_by_zero] on a zero denominator. *)

val of_string : string -> t
(** Accepts ["3/4"], ["-3/4"], ["7"]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val hash : t -> int
