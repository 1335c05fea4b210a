(** The execution measure [ε_σ] (Section 3) and the engine that computes it.

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
    contains, and the discarded mass is returned as an explicit deficit
    [lost] in a [`Truncated] tag, so [mass + lost = 1] as exact
    rationals. Only the entry points that return that tag take budgets:
    {!exec_dist_budgeted} both, {!reach_prob_budgeted} [?max_execs].

    - [?max_width w] prunes each frontier layer to its [w] most probable
      executions (ties broken by {!Exec.compare}, so truncation is
      deterministic).
    - [?max_execs n] caps the support of the result: once completed plus
      frontier executions exceed [n], expansion stops and the surviving
      frontier is reported as completed.

    Without budgets nothing is pruned or sorted: the result is the full
    depth-bounded measure. A budget-hit layer sorts by probability to
    choose what it keeps, then puts the kept entries back in
    {!Exec.compare} order.

    {2 State-space compression}

    Four entry points take [?compress] (default [`Off]): {!exec_dist},
    {!exec_dist_budgeted}, {!exec_dist_frontier} and {!reach_prob}, the
    ones the daemon, the CLI and the benchmark set. Every other entry
    point, and every f-dist ({!Insight.apply}), runs uncompressed.

    - [`Off]: no compression.
    - [`Quotient]: an on-the-fly probabilistic-bisimulation quotient of
      each frontier layer ({!Cdse_psioa.Quotient}). Frontier executions with the same
      (trace, last state) have identical futures under a
      {!Scheduler.is_memoryless} scheduler, so their exact masses are
      pooled onto one representative (the {!Exec.compare}-least member).
      A representative stands for its whole class: it is no execution to
      observe one by one (its intermediate states are one member's, not
      the class's). Only what every member shares stays exact: the trace
      pushforward, {!reach_prob} (the predicate refines the classes, so
      pred-hitting and pred-missing executions are never merged), the
      execution lengths, and the budget's books (mass and deficit).
      Budgets prune the compressed frontier by the same total order. For
      history-dependent schedulers the quotient is unsound and the engine
      silently degrades to [`Off].

    {2 The engine}

    One schedule, the {b layer loop}, computes every measure: it expands
    the frontier one layer at a time, applies the layer post-step — the
    [`Quotient] merge, then the [?max_width] budget, then the [?max_execs]
    budget — and can resume from a previously returned frontier
    ({!exec_dist_frontier}). A negative [depth] or budget raises
    [Invalid_argument] naming it.

    The frontier is kept in ascending {!Exec.compare} order by
    construction. Each child extends its parent's cone, a node's children
    come in ascending order (a choice ordered by {!Action.compare} and
    transitions ordered by {!Value.compare}, as every scheduler and
    automaton here builds them), and the children of a lesser node
    precede those of a greater one. So walking the ascending frontier
    yields the next layer in reverse, and one reversal per layer restores
    it. Each layer's halted executions are merged into the finished ones
    in order, and the result is one linear merge of the two lists, which
    {!Dist.make} takes without a sort.

    Every run memoizes: transitions are cached per [(state, action)]
    across the cone frontier ({!Psioa.memoize}), and for
    {!Scheduler.is_memoryless} schedulers the validated choice is cached
    keyed by [(length, last state)] for the call. A memoized model (the
    daemon's registry) is used as it is, so its memo outlives the call.
    Any other automaton is memoized for the call alone, and only the
    [`Quotient] merge reads the copy's signatures: schedulers and
    insights read the automaton they were built over, whose last
    signature {!Psioa.signature} keeps. ([cdse_cli measure --workload
    random --seed 1 --depth 5 --stats] counts [psioa.memo.sig.*] reads 0
    times under [`Off] and 1 455 times under [`Quotient]; every E18
    point reads them 0 times.)

    {2 Determinism contract}

    For a fixed [compress], the result is {b bit-identical for every
    arrival order of the frontier entries} (the order in which a layer's
    children are produced and met):

    - the returned distribution has one in-memory normal form (entries
      sorted by {!Exec.compare}, exact rationals in canonical form —
      rational arithmetic is exact, so merge order cannot perturb masses);
    - the [`Exact] / [`Truncated] tag and the truncation deficit are
      identical — budget pruning sorts by the total order
      [(probability descending, Exec.compare ascending)], which does not
      depend on the arrival order of frontier entries;
    - the {!Cdse_obs.Obs} engine totals [measure.layers],
      [measure.finished], [measure.truncated], the quotient counters and
      the [measure.truncation_deficit] gauge are identical.

    The engine's ascending frontier order buys speed only: {!Dist.make}
    sorts any input that does not ascend, so a frontier in any order
    resumes to the same result.

    If the scheduler (or a transition lookup) raises — e.g.
    {!Scheduler.Bad_choice} for a choice that violates the Definition 3.1
    support condition — the raise surfaces at once, for the first failing
    entry in frontier order, and the engine stays usable afterwards. *)

open Cdse_prob
open Cdse_psioa

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]
(** Outcome of a budgeted computation: [`Exact v] when no budget was hit,
    [`Truncated (v, deficit)] when pruning occurred — [deficit] is the
    exact probability mass the budgets discarded. *)

type compress = [ `Off | `Quotient ]
(** State-space compression level — see the module docs. *)

val compress_levels : (string * compress) list
(** The level names every front end accepts — [off] and [quotient], in
    that order: the CLI's [--compress] flag and the serve protocol's
    ["compress"] field. *)

val exec_dist :
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t
(** Exact distribution over completed executions up to [depth] steps. *)

val exec_dist_budgeted :
  ?max_execs:int -> ?max_width:int ->
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t budgeted
(** {!exec_dist} under the budgets, reporting truncation explicitly:
    [`Truncated (d, lost)] satisfies [Dist.mass d + lost = 1], [lost]
    being the mass the budgets discarded (halting mass is booked as
    completed executions). Without budgets, always [`Exact]. *)

type frontier = {
  f_depth : int;  (** Every entry of [f_alive] has exactly this length. *)
  f_alive : (Exec.t * Rat.t) list;
      (** Executions the scheduler may still extend, with their exact mass,
          in strictly ascending {!Exec.compare} order. Post-quotient
          representatives when the producing run compressed with
          [`Quotient]. *)
  f_finished : (Exec.t * Rat.t) list;
      (** Halting mass accumulated strictly before [f_depth], in strictly
          ascending {!Exec.compare} order. *)
}
(** A resumable cone frontier, as returned by {!exec_dist_frontier}. The
    final distribution of the producing run is exactly
    [Dist.make ~compare:Exec.compare (f_finished @ f_alive)]. A frontier
    resumed from ([?from]) may come in any order: the order only makes the
    run faster. *)

val exec_dist_frontier :
  ?compress:compress -> ?from:frontier ->
  Psioa.t -> Scheduler.t -> depth:int ->
  Exec.t Dist.t * frontier
(** {!exec_dist} that also returns its final frontier and can resume from
    one ([?from]) instead of the initial execution — the
    incremental-deepening hook behind the {!Cdse_serve} result cache.
    Resuming a depth-[d] frontier to depth [d + k] is {b bit-identical} to
    a one-shot run at depth [d + k] with the same [auto], [sched] and
    [compress]: frontier entry order is normalized away by {!Dist.make},
    rational mass addition is exact and commutative, and the quotient
    representative choice is [Exec.compare]-minimal per class. Raises [Invalid_argument]
    if [from.f_depth > depth]. The caller is responsible for resuming only
    with the same [auto]/[sched]/[compress] that produced the frontier —
    the serving cache keys enforce exactly that. *)

val cone_prob : Psioa.t -> Scheduler.t -> Exec.t -> Rat.t
(** [ε_σ(C_α)]: the probability that the scheduled run extends [α]
    (Section 3's cone measure), computed as the product of scheduler and
    transition probabilities along [α]. *)

val trace_dist :
  Psioa.t -> Scheduler.t -> depth:int ->
  Action.t list Dist.t
(** Pushforward of {!exec_dist} through the trace map (Definition 2.2). *)

val reach_prob :
  ?compress:compress ->
  Psioa.t -> Scheduler.t -> depth:int -> pred:(Value.t -> bool) -> Rat.t
(** Exact probability that a completed execution visits a state satisfying
    [pred] within [depth] steps, at every compression level. *)

val reach_mass : pred:(Value.t -> bool) -> Exec.t Dist.t -> Rat.t
(** The mass of the executions in a distribution that visit a state
    satisfying [pred]: what {!reach_prob} sums over {!exec_dist}. It
    makes one [pred] test per cone node: walking the items in order, each
    reuses the previous item's answer ({!Exec.first_hit}) for the
    leading steps the two hold physically, as the engine's siblings do,
    and tests only the states below them. A distribution whose items
    share nothing, such as a decoded one, costs one test per state of
    every item. *)

val reach_prob_budgeted :
  ?max_execs:int -> Psioa.t -> Scheduler.t -> depth:int -> pred:(Value.t -> bool) -> Rat.t budgeted
(** {!reach_prob} under the [?max_execs] budget: [`Truncated (p, lost)] brackets the
    true probability in [[p, p + lost]] — the deficit mass may or may not
    have reached [pred]. *)

val expected_steps :
  Psioa.t -> Scheduler.t -> depth:int ->
  Rat.t
(** Expected length of the completed execution. *)

(** {2 Monte-Carlo estimation}

    The exact cone expansion is exponential in depth on branching systems;
    the sampling estimator is linear in [samples × depth] and converges to
    the exact measure (ablation in experiment E7). Never used by the ε = 0
    checkers. *)

val sample_exec : Psioa.t -> Scheduler.t -> rng:Rng.t -> depth:int -> Exec.t
(** One sampled completed execution (halting when the scheduler does).
    Raises [Invalid_argument] if [depth < 0]. *)

val estimate_fdist :
  Psioa.t ->
  Scheduler.t ->
  observe:(Exec.t -> 'a) ->
  rng:Rng.t ->
  samples:int ->
  depth:int ->
  ('a * float) list
(** Empirical observation distribution over [samples] sampled runs. *)

(**/**)

module For_tests : sig
  val truncate_entries :
    keep:int -> (Exec.t * Rat.t) list -> (Exec.t * Rat.t) list * Rat.t
  (** The budget-pruning step, exposed so the regression suite can verify
      that permuting the frontier leaves the kept entries and dropped mass
      unchanged. *)
end
