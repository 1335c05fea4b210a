(** Distributions over state values — the transition-target measures
    [Disc(Q_A)] of Definition 2.1, specialised to the universal value
    state space. Thin wrappers around {!Cdse_prob.Dist} with the value
    comparator baked in. *)

open Cdse_prob

type t = Value.t Dist.t

val dirac : Value.t -> t
(** [δ_q]. *)

val uniform : Value.t list -> t
val make : (Value.t * Rat.t) list -> t

val coin : ?p:Rat.t -> Value.t -> Value.t -> t
(** [coin ~p heads tails]: [heads] with probability [p] (default 1/2). *)

val map : (Value.t -> Value.t) -> t -> t
val pp : Format.formatter -> t -> unit
