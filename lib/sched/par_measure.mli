(** The exact-measure engine: one cone-expansion core, two schedules.

    Every execution measure the library computes is a depth-bounded
    expansion of the cone tree, one node at a time. One function expands a
    node; two schedules drive it:

    - the {b layer loop} (sequential): expands the frontier one layer at a
      time and applies the layer post-step — the [`Quotient] merge, then
      the [?max_width] budget, then the [?max_execs] budget — and resumes
      from a previously returned frontier ([?from]);
    - the {b barrier-free subtree engine} (multicore, OCaml 5 domains):
      the coordinator grows the frontier breadth-first until it holds
      several subtree roots per worker, then workers claim whole
      {e subtrees} — one root at a time off an atomic cursor — and expand
      them depth-first to the full remaining depth with their own
      memo/hcons/choice caches, with no synchronization until one
      canonical merge at the very end. Load balancing is cooperative work
      {e donation}: a busy worker that observes idle workers donates the
      shallowest half of its pending stack (the largest remaining
      subtrees) to a shared overflow queue.

    {2 Dispatch}

    The subtree engine runs {b iff} [domains > 1], no budget is set and no
    [`Quotient] is active (with a {!Scheduler.is_memoryless} scheduler —
    with a history-dependent one [`Quotient] degrades to [`Hcons]). Every
    other run — any run at [domains = 1], and budgeted or quotient runs at
    any domain count — runs the layer loop, so its result is the layer
    loop's bit for bit. Nothing else selects the engine.

    {2 Determinism contract}

    For a fixed [compress], the result is {b bit-identical for every
    domain count}, donation pattern and OS scheduling of the workers:

    - the returned distribution satisfies {!Cdse_prob.Dist.equal} with the
      sequential one {e and} has the same in-memory normal form (entries
      sorted by {!Cdse_psioa.Exec.compare}, exact rationals in canonical
      form — rational arithmetic is exact, so merge order cannot perturb
      masses);
    - the [`Exact] / [`Truncated] tag and the truncation deficit are
      identical — budget pruning sorts by the total order
      [(probability descending, Exec.compare ascending)], which does not
      depend on the arrival order of frontier entries;
    - the {!Cdse_obs.Obs} engine totals are conserved: [measure.finished]
      and the [measure.truncation_deficit] gauge are identical to a
      sequential run, and the memoization and choice-cache counters are
      conserved as {e sums} ([hit + miss] = one lookup per cone node; the
      split between hit and miss depends on the domain count, because
      each worker warms its own cache). The subtree engine has no layers
      and does not emit the layer instruments ([measure.layers],
      [measure.frontier.width]); it reports [measure.subtree.roots] /
      [measure.subtree.steals] instead (work units claimed from the root
      cursor / the donation queue; their split {e does} vary with the
      schedule).

    If the scheduler (or a transition lookup) raises, the layer loop
    raises at once, for the first failing entry in frontier order. The
    subtree engine completes the surviving work and re-raises the failure
    of the [Exec.compare]-least {e minimal} failing execution (a failing
    node's subtree is never entered, so the minimal failing set is
    partition-independent). When exactly one execution fails — the common
    debugging situation — every domain count surfaces the same exception,
    and the engine stays usable after a raise.

    Worker domains never touch shared mutable state on the hot path: each
    gets its own {!Cdse_psioa.Psioa.memoize} instance and validated-choice
    cache, and its counter increments accumulate in a per-domain
    {!Cdse_obs.Obs} shard merged when the workers join. The [domains - 1]
    worker domains are spawned for the call and joined before it
    returns. *)

open Cdse_prob
open Cdse_psioa

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]
(** Same shape as {!Measure.budgeted} (structural, so the two interchange
    freely). *)

type compress = [ `Off | `Hcons | `Quotient ]
(** State-space compression level (see the {!Measure} docs for the user
    contract):

    - [`Off] (default): no compression.
    - [`Hcons]: every state is routed through a {!Cdse_psioa.Hcons} intern
      table (per engine instance; per worker domain when parallel), so
      state equality, {!Cdse_psioa.Exec.compare} and the memo tables
      short-circuit on physical equality. Results are identical to
      [`Off] — same distribution, tag, deficit.
    - [`Quotient]: [`Hcons] plus an on-the-fly probabilistic-bisimulation
      quotient of every frontier layer ({!Cdse_psioa.Quotient}): entries
      with the same (trace, last state) — same future under a
      {!Scheduler.is_memoryless} scheduler — pool their exact mass onto
      one representative, so a depth-[d] frontier holds equivalence
      classes instead of raw executions. Trace-level measures, budget
      accounting and length expectations are exact; the execution-level
      support is a compressed representation. Budgets prune the
      {e compressed} frontier by the same (prob desc, [Exec.compare] asc)
      total order. For history-dependent schedulers [`Quotient] silently
      degrades to [`Hcons]. *)

val exec_dist_budgeted :
  ?memo:bool ->
  ?max_execs:int ->
  ?max_width:int ->
  ?domains:int ->
  ?compress:compress ->
  ?track:(Value.t -> bool) ->
  Psioa.t ->
  Scheduler.t ->
  depth:int ->
  Exec.t Dist.t budgeted
(** Like {!Measure.exec_dist_budgeted}, on [?domains] (default 1, clamped
    to [64]) OCaml domains, dispatched as described above. [?track]
    refines the [`Quotient] classes by "has the execution already visited
    a state satisfying the predicate", which is what keeps
    {!Measure.reach_prob} exact under compression; ignored at other
    levels. *)

type frontier = {
  f_depth : int;  (** Every entry of [f_alive] has exactly this length. *)
  f_alive : (Exec.t * Rat.t) list;
      (** Executions the scheduler may still extend, with their exact mass.
          Post-quotient representatives when the producing run compressed
          with [`Quotient]. *)
  f_finished : (Exec.t * Rat.t) list;
      (** Halting mass accumulated strictly before [f_depth]. *)
}
(** A resumable cone frontier, as returned by {!exec_dist_frontier}. The
    final distribution of the producing run is exactly
    [Dist.make ~compare:Exec.compare (f_finished @ f_alive)]. *)

val exec_dist_frontier :
  ?memo:bool ->
  ?domains:int ->
  ?compress:compress ->
  ?from:frontier ->
  Psioa.t ->
  Scheduler.t ->
  depth:int ->
  Exec.t Dist.t * frontier
(** Unbudgeted expansion that additionally returns the final frontier,
    and can resume from a previously returned one ([?from]) instead of the
    initial execution — the incremental-deepening hook behind the serving
    layer's result cache. Resuming a depth-[d] frontier to depth [d + k] is
    {b bit-identical} to a one-shot run at depth [d + k] with the same
    [auto], [sched] and [compress] (distribution, in-memory normal form,
    and — trivially, both are [`Exact] — tag and deficit), for every
    domain count on either side of the split: frontier entry order is
    normalized away by {!Dist.make}, rational mass addition is exact and
    commutative, and the quotient representative choice is
    [Exec.compare]-minimal per class. Raises [Invalid_argument] if
    [from.f_depth > depth]. The caller is responsible for resuming only
    with the same [auto]/[sched]/[compress] that produced the frontier —
    the serving cache keys enforce exactly that. *)

(**/**)

module For_tests : sig
  val truncate_entries :
    keep:int -> (Exec.t * Rat.t) list -> (Exec.t * Rat.t) list * Rat.t
  (** The budget-pruning step, exposed so the regression suite can verify
      that permuting the frontier leaves the kept entries and dropped mass
      unchanged. *)

  val run_workers : int -> (int -> unit) -> unit
  (** [run_workers n job] runs [job] on worker ids [0 .. n-1] — the caller
      is worker 0, [n - 1] domains are spawned for the call — and joins
      every domain. If jobs raise, all domains are still joined, then the
      exception of the smallest raising worker id is re-raised. Exposed so
      the regression suite can pin that a raising job neither deadlocks
      nor leaks a domain. *)
end
