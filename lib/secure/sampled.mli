(** Sampled (Monte-Carlo) implementation checking.

    The exact checker {!Impl.approx_le} expands full execution cones — fine
    at the paper's bounded depths, exponential on large branching systems.
    This module estimates the same f-dist comparison from sampled runs:
    sound up to sampling error (a tolerance the caller supplies), never
    used for the exact [ε = 0] claims. The empirical distance converges to
    the exact sup-set distance at rate O(1/√samples). *)

open Cdse_psioa
open Cdse_sched

type verdict = {
  holds : bool;
  worst : float;  (** largest best-match empirical distance *)
  samples : int;
}

val approx_le_sampled :
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  eps:float ->
  tolerance:float ->
  q1:int ->
  q2:int ->
  depth:int ->
  samples:int ->
  seed:int ->
  a:Psioa.t ->
  b:Psioa.t ->
  verdict
(** Like {!Impl.approx_le} with empirical f-dists: holds when every σ finds
    a candidate within [eps + tolerance]. *)
