(** The execution measure [ε_σ] (Section 3).

    A scheduler [σ] induces a probability measure on the σ-field generated
    by cones of execution fragments. For a depth-bounded computation the
    measure is a finite discrete distribution over completed executions:
    an execution is {e completed} when the scheduler halts on it (deficit
    mass) or the depth limit is reached. When [σ] is [b]-bounded
    (Definition 4.6) and [depth ≥ b], the result is exactly [ε_σ].

    {2 Budgets and graceful degradation}

    Exact cone expansion is exponential in depth on branching systems.
    The [?max_execs] / [?max_width] budgets bound the work while keeping
    the result {e exact about its own incompleteness}: the computed
    sub-distribution is a true lower bound of [ε_σ] on every execution it
    contains, and the discarded mass is returned as an explicit deficit,
    so [mass + deficit = 1] as exact rationals.

    - [?max_width w] prunes each frontier layer to its [w] most probable
      executions (ties broken by {!Exec.compare}, so truncation is
      deterministic).
    - [?max_execs n] caps the support of the result: once completed plus
      frontier executions exceed [n], expansion stops and the surviving
      frontier is reported as completed.

    Without budgets nothing is pruned or sorted: the result is the full
    depth-bounded measure.

    {2 State-space compression}

    [?compress] (default [`Off]) trades representation detail for frontier
    size, without giving up exactness where it matters:

    - [`Off]: no compression.
    - [`Hcons]: hash-consing only. Every reached state is interned in a
      {!Cdse_psioa.Hcons} table so equality checks, {!Exec.compare} and
      the memo tables short-circuit on physical identity. The result —
      distribution, [`Exact]/[`Truncated] tag, deficit — is {b identical}
      to [`Off].
    - [`Quotient]: hash-consing {e plus} an on-the-fly
      probabilistic-bisimulation quotient of each frontier layer
      ({!Cdse_psioa.Quotient}). Frontier executions with the same
      (trace, last state) have identical futures under a
      {!Scheduler.is_memoryless} scheduler, so their exact masses are
      pooled onto one representative (the {!Exec.compare}-least member).
      {!trace_dist}, {!reach_prob} (via an internal visited-predicate
      refinement), {!expected_steps} and the budget deficit are exact; the
      {e execution-level} support of {!exec_dist} is a compressed
      representation (one representative per class), so it is not
      bit-identical to [`Off]. Budgets prune the compressed frontier by
      the same total order. For history-dependent schedulers the quotient
      is unsound and the engine silently degrades to [`Hcons].

    Every compression level preserves the cross-domain determinism
    contract: for a fixed [compress], results are bit-identical for every
    [?domains] value.

    {2 Parallelism}

    [?domains n] (default 1) expands the cone across [n] OCaml 5 domains
    via {!Par_measure}, under one rule: unbudgeted runs without an active
    [`Quotient] use the barrier-free {e subtree} engine (workers own
    whole cone subtrees and steal work cooperatively, one merge at the
    end); every other run — any run at [domains = 1], and budgeted or
    quotient runs at any domain count — uses the sequential layer loop.
    Either way the result is bit-identical to the sequential run — same
    distribution, same [`Exact]/[`Truncated] tag, same deficit, conserved
    {!Cdse_obs.Obs} totals — for every domain count; see {!Par_measure}
    for the determinism contract. *)

open Cdse_prob
open Cdse_psioa

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]
(** Outcome of a budgeted computation: [`Exact v] when no budget was hit,
    [`Truncated (v, deficit)] when pruning occurred — [deficit] is the
    exact probability mass the budgets discarded. *)

type compress = Par_measure.compress
(** [`Off | `Hcons | `Quotient] — see the module docs above and
    {!Par_measure.compress}. *)

val exec_dist :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t
(** Exact distribution over completed executions up to [depth] steps.
    Raises {!Scheduler.Bad_choice} if the scheduler violates the
    Definition 3.1 support condition.

    [~memo:true] (default [false]) computes the same measure faster:
    signature/transition lookups are cached per [(state, action)] across
    the cone frontier (via {!Psioa.memoize}), and for
    {!Scheduler.is_memoryless} schedulers the validated choice is cached
    keyed by [(length, last state)] instead of being recomputed per
    execution. Observationally identical; caches live only for the call.

    [?compress] selects the state-space compression level (module docs).

    With [?max_execs] / [?max_width] the result may be a sub-distribution
    (truncation deficit silently folded into the distribution's own
    {!Dist.deficit}); use {!exec_dist_budgeted} when the caller must
    distinguish scheduler halting from budget truncation. *)

val exec_dist_budgeted :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t budgeted
(** Like {!exec_dist}, but reports budget truncation explicitly:
    [`Truncated (d, lost)] satisfies [Dist.mass d + Dist.deficit d' + lost]
    accounting such that the measure's total mass plus [lost] is exactly
    the unbudgeted total. Without budgets, always [`Exact]. *)

type frontier = Par_measure.frontier = {
  f_depth : int;
  f_alive : (Exec.t * Rat.t) list;
  f_finished : (Exec.t * Rat.t) list;
}
(** A resumable cone frontier — see {!Par_measure.frontier}. *)

val exec_dist_frontier :
  ?memo:bool -> ?domains:int -> ?compress:compress -> ?from:frontier ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t * frontier
(** Unbudgeted {!exec_dist} that also returns its final frontier and can
    resume from one ([?from]) — the incremental-deepening hook behind the
    {!Cdse_serve} result cache. Resuming a depth-[d] frontier to depth
    [d + k] is bit-identical to a one-shot run at depth [d + k] with the
    same model, scheduler and compression; see
    {!Par_measure.exec_dist_frontier} for the contract and the
    [Invalid_argument] conditions. *)

val cone_prob : Psioa.t -> Scheduler.t -> Exec.t -> Rat.t
(** [ε_σ(C_α)]: the probability that the scheduled run extends [α]
    (Section 3's cone measure), computed as the product of scheduler and
    transition probabilities along [α]. *)

val trace_dist :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Action.t list Dist.t
(** Pushforward of {!exec_dist} through the trace map (Definition 2.2).
    Exact at {e every} compression level — the quotient merges only
    executions with equal traces, so the pushforward is unchanged. *)

val trace_dist_budgeted :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Action.t list Dist.t budgeted
(** Budget-aware {!trace_dist}: the pushforward of {!exec_dist_budgeted},
    carrying the truncation deficit through unchanged. *)

val n_execs :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int -> int
(** Support size of {!exec_dist} — used by the scaling benchmarks (E7).
    Under [`Quotient] this counts equivalence classes, not raw
    executions. *)

val reach_prob :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int -> pred:(Value.t -> bool) -> Cdse_prob.Rat.t
(** Exact probability that a completed execution visits a state satisfying
    [pred] within [depth] steps. Under budgets this is a lower bound.
    Exact at every compression level: [pred] is forwarded to the engine as
    the quotient's track refinement ({!Par_measure.exec_dist_budgeted}), so
    pred-hitting and pred-missing executions are never merged. *)

val reach_prob_budgeted :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int -> pred:(Value.t -> bool) -> Rat.t budgeted
(** Budget-aware reachability: [`Truncated (p, lost)] brackets the true
    probability in [[p, p + lost]] — the deficit mass may or may not have
    reached [pred]. *)

val expected_steps :
  ?memo:bool -> ?max_execs:int -> ?max_width:int -> ?domains:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Cdse_prob.Rat.t
(** Expected length of the completed execution (exact; under budgets, the
    expectation over the computed sub-distribution). Exact at every
    compression level — merged executions share their length. *)

(** {2 Monte-Carlo estimation}

    The exact cone expansion is exponential in depth on branching systems;
    the sampling estimator is linear in [samples × depth] and converges to
    the exact measure (ablation in experiment E7). Never used by the ε = 0
    checkers. *)

val sample_exec : Psioa.t -> Scheduler.t -> rng:Rng.t -> depth:int -> Exec.t
(** One sampled completed execution (halting when the scheduler does). *)

val estimate_fdist :
  Psioa.t ->
  Scheduler.t ->
  observe:(Exec.t -> 'a) ->
  rng:Rng.t ->
  samples:int ->
  depth:int ->
  ('a * float) list
(** Empirical observation distribution over [samples] sampled runs. *)
