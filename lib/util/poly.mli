(** Integer polynomials with natural-number coefficients.

    Used for the polynomial bounds [p, q1, q2 : ℕ → ℕ] of Definitions
    4.8–4.12 and for fitting empirical bound curves in the experiments
    (E1, E2). Coefficients are stored lowest-degree first. *)

type t

val of_coeffs : int list -> t
(** [of_coeffs [c0; c1; c2]] is [c0 + c1·x + c2·x²]. Raises
    [Invalid_argument] on negative coefficients. *)

val degree : t -> int
val eval : t -> int -> int
val add : t -> t -> t
val mul : t -> t -> t
val scale : int -> t -> t
val compose : t -> t -> t
(** [compose p q] is [p ∘ q]. *)

val equal : t -> t -> bool
val coeffs : t -> int list
val pp : Format.formatter -> t -> unit

val dominates : t -> (int -> int) -> from:int -> upto:int -> bool
(** [dominates p f ~from ~upto] checks [f k ≤ p k] for all [k] in
    [from..upto] — the finite-window stand-in for "f is polynomially
    bounded by p". *)
