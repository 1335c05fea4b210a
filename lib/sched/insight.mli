(** Insight functions and their image measures (Definitions 3.4, 3.5).

    An insight function [f_(E,A)] maps executions of [E ‖ A] to a measurable
    observation space [G_E] that depends only on the environment [E], so
    that observations of [E ‖ A] and [E ‖ B] can be compared. We encode all
    observations as {!Value.t}, giving a single arrival space with a total
    order.

    Constructors build the [f_(E,A)] member for one concrete composite;
    the same constructor applied to [E ‖ A] and [E ‖ B] yields the matched
    pair of Definition 3.4. *)

open Cdse_prob
open Cdse_psioa

type t = { name : string; observe : Exec.t -> Value.t }

val trace : Psioa.t -> t
(** The [trace] insight: the external-action sequence of the composite. *)

val accept : Psioa.t -> t
(** The [accept] insight of Canetti et al.: [Bool true] iff an action named
    ["acc"] occurs in the trace. The classic "environment outputs its
    verdict" observation. *)

val print_left : Psioa.t -> Psioa.t -> t
(** [print_left env composite]: the [print] insight of the dynamic-PIOA
    framework, specialised to pair composites [E ‖ A] with the environment
    on the left — the observation is the environment's local execution
    (its state/action projection), which is insensitive to the identity of
    the right component. *)

val print_nth : Psioa.t -> int -> Psioa.t -> t
(** [print_nth env idx composite]: like {!print_left} for n-ary
    [Compose.parallel] composites with the environment at index [idx]. *)

val apply :
  ?memo:bool -> ?domains:int -> ?compress:[ `Off ] ->
  t -> Psioa.t -> Scheduler.t -> depth:int -> Value.t Dist.t
(** [f-dist(σ)] (Definition 3.5): the image of [ε_σ] under the insight,
    computed from the uncompressed {!Measure.exec_dist}, the one
    configuration. A quotient representative would not do: an insight
    such as {!print_left} observes intermediate states, which a
    representative keeps for one member of its class only.

    [?memo], [?domains] and [?compress] stay only because
    [perfbench/replay.ml] passes them: [?memo] is ignored (every measure
    memoizes), [?domains] accepts only [1] (the default) and raises
    [Invalid_argument] on any other value, and [?compress] admits only
    [`Off]. *)

(** {2 Stability by composition (Definition 3.7)}

    [trace], [accept] and [print] are stable by composition: an environment
    [E] observing [E ‖ B ‖ Aᵢ] has no more distinguishing power than
    [E ‖ B] observing [Aᵢ]. {!check_stability} validates the inequality of
    Definition 3.7 on a concrete instance (used by tests). *)

val check_stability :
  make_insight:(Psioa.t -> t) ->
  env:Psioa.t ->
  ctx:Psioa.t ->
  a1:Psioa.t ->
  a2:Psioa.t ->
  sched_of:(Psioa.t -> Scheduler.t) ->
  depth:int ->
  bool
(** Check that the distance between observations of [E ‖ (B ‖ A₁)] and
    [E ‖ (B ‖ A₂)] under [make_insight] is no larger than when [E ‖ B] is
    taken as the observing environment. *)
