(** On-the-fly probabilistic-bisimulation quotient of a cone frontier.

    Two frontier executions of the same layer are {e observably bisimilar}
    under a {!Cdse_sched}-style memoryless scheduler when they carry the
    same trace so far and end in the same state: every future scheduler
    choice depends only on [(length, last state)] (both equal), every
    future transition only on the last state, and every future observation
    extends the same past trace — so their continuation trace
    distributions coincide and their masses can be pooled onto a single
    representative without changing any trace-level measure. This is the
    signature-fingerprint + successor-distribution partition of
    {!Bisim} specialised to the frontier of an unrolled cone, where the
    successor condition degenerates to last-state equality (states with
    equal identity have literally equal transition structure).

    The measure engine applies {!merge_frontier} once per layer under
    [~compress:`Quotient]; a depth-[d] frontier then holds equivalence
    classes rather than raw executions. The resulting [exec_dist] is a
    {e compressed support representation} — its pushforward through the
    trace map, its budget accounting (mass + deficit = 1), and its
    length expectations are exact; the execution-level support is not
    (merged-away executions are represented by their class
    representative). Reachability stays exact when the caller threads the
    predicate through [?track], which refines classes by whether the
    execution has already visited a matching state. *)

open Cdse_prob

val merge_frontier :
  sig_of:(Value.t -> Sigs.t) ->
  ?track:(Value.t -> bool) ->
  (Exec.t * Rat.t) list ->
  (Exec.t * Rat.t) list * int * Rat.t
(** [merge_frontier ~sig_of entries] partitions same-layer frontier
    [entries] by [(trace, last state)] — refined by the [?track] predicate
    flag ("has this execution already visited a matching state") when
    given — and pools each class's exact-rational mass onto its minimal
    member by {!Exec.compare}. Returns
    [(classes, merged_away, merged_mass)]: the compressed frontier sorted
    by representative ({!Exec.compare} ascending), the number of entries
    absorbed into another representative, and their total probability
    mass. When nothing merges, [entries] come back as they are. The
    classes are collected in first-seen order; when [entries] ascend, as
    the engine's frontiers do, that is already the representatives'
    order, and only other input is sorted. The output is independent of
    the input order (representatives are order-insensitive minima,
    rational addition is exact and commutative, and the result is
    sorted), which is what keeps the measure's determinism contract
    intact under compression. *)
