(** Negligible functions — the ε of [≤_{neg,pt}] (Definition 4.12).

    A function [ε : ℕ → ℝ≥0] is negligible when it is eventually below
    [1/k^d] for every degree [d]. Finite data cannot verify the full
    quantifier; {!is_negligible_window} checks the defining inequality at
    one requested degree over a window, which is sound for the
    experiments because the composability results only {e propagate}
    negligibility (DESIGN.md §2). *)

open Cdse_prob

type t = int -> Rat.t

val zero : t

val inv_pow2 : t
(** [k ↦ 2^{-k}] — the canonical negligible function. *)

val inv_poly : int -> t
(** [k ↦ 1/k^d] — {e not} negligible; the falsification fixture. *)

val add : t -> t -> t
(** Negligible functions are closed under addition — the fact behind the
    transitivity theorem's ε-accounting (Theorem 4.16). *)

val mul_poly : Cdse_util.Poly.t -> t -> t
(** Closure under polynomial factors (hybrid arguments). *)

val le_pointwise : window:int list -> t -> t -> bool

val is_negligible_window : ?degree:int -> from:int -> upto:int -> t -> bool
(** [ε k ≤ 1/k^degree] for all [k] in [from..upto] (degree defaults
    to 3). *)
