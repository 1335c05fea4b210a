(** Negligible functions, for the [≤_{neg,pt}] relation (Definition 4.12).

    A function [ε : ℕ → ℝ≥0] is negligible when it is eventually below
    [1/k^d] for every degree [d]. Exact verification is impossible on
    finite data; {!is_negligible_window} checks the defining inequality for
    the requested degree on a window — callers state the degree they need
    (the composability results only ever {e propagate} negligibility, so
    window checks at matching degrees are sound for the experiments). *)

open Cdse_prob

type t = int -> Rat.t

let zero : t = fun _ -> Rat.zero

(** [k ↦ 2^{-k}] — the canonical negligible function. *)
let inv_pow2 : t = fun k -> Rat.pow Rat.half (max 0 k)

(** [k ↦ c / 2^k]. *)

(** [k ↦ 1/k^d] — NOT negligible; used as a falsification fixture. *)
let inv_poly d : t = fun k -> if k <= 0 then Rat.one else Rat.of_ints 1 (int_of_float (float_of_int k ** float_of_int d))

let add (a : t) (b : t) : t = fun k -> Rat.add (a k) (b k)

(** [mul_poly p ε]: multiplying a negligible function by a polynomial
    keeps it negligible — the closure behind "polynomially many hybrid
    steps" arguments (used implicitly by Theorem 4.30's induction over a
    constant number of substitutions). *)
let mul_poly p (a : t) : t = fun k -> Rat.mul (Rat.of_int (Cdse_util.Poly.eval p k)) (a k)

let le_pointwise ~window (a : t) (b : t) =
  List.for_all (fun k -> Rat.compare (a k) (b k) <= 0) window

(** [ε k ≤ 1/k^degree] for every k in the window past [from]. *)
let is_negligible_window ?(degree = 3) ~from ~upto (eps : t) =
  let rec go k =
    k > upto
    ||
    let bound = Rat.of_ints 1 (int_of_float (float_of_int k ** float_of_int degree)) in
    Rat.compare (eps k) bound <= 0 && go (k + 1)
  in
  go (max from 1)
