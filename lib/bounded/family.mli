(** Indexed families of automata, schedulers and bounds
    (Definitions 4.7–4.10).

    A family is a function from the security parameter [k ∈ ℕ] to an
    object. Verification is over finite windows of [k] (DESIGN.md
    substitution table): the positive results being checked are
    constructive, so any violated index falsifies them. *)

open Cdse_psioa

type 'a t = int -> 'a
(** The family [(x_k)_{k∈ℕ}]. *)

val const : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t

val compose_psioa : Psioa.t t -> Psioa.t t -> Psioa.t t
(** Pointwise parallel composition (Definition 4.7):
    [(A‖B)_k = A_k ‖ B_k]. *)

val compatible_window : window:int list -> Psioa.t t -> Psioa.t t -> bool
(** Pairwise partial compatibility ({!Compose.partially_compatible}) at
    every index of the window. Raises {!Psioa.Sweep_truncated} when a
    composite in the window reaches more than
    {!Psioa.default_max_states} states. *)

val time_bounded_window :
  window:int list -> bound:(int -> int) -> ?max_states:int -> ?max_depth:int -> Psioa.t t -> bool
(** Definition 4.8 on a window: [A_k] is [bound k]-time-bounded for each
    [k]. *)

val poly_bounded_window :
  window:int list -> poly:Cdse_util.Poly.t -> ?max_states:int -> ?max_depth:int -> Psioa.t t -> bool
(** "Polynomially bounded description" over a window. *)

val fit_poly_bound :
  window:int list -> degree:int -> (int -> int) -> Cdse_util.Poly.t option
(** Find a small polynomial of the given degree that dominates the
    measurements on the window — used to report empirical bound curves. *)
