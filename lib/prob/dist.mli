(** Exact finite discrete (sub-)probability distributions.

    This is the executable counterpart of [Disc(S)] and [SubDisc(S)] from
    Section 2.1 of the paper. The paper works with countable supports; every
    object the framework actually manipulates under a bounded scheduler
    (Definition 4.6) has finite support, so a sorted array of
    [(element, probability)] pairs with exact rational probabilities is a
    faithful representation (see DESIGN.md, substitution table).

    A value of type ['a t] carries its own element comparator. Probabilities
    are strictly positive in [items]; total mass is [≤ 1], with mass [< 1]
    representing the halting deficit of a sub-probability measure
    (Definition 3.1). *)

type 'a t

exception Invalid of string

val make : compare:('a -> 'a -> int) -> ('a * Rat.t) list -> 'a t
(** Normalizes: merges duplicate elements, drops zero entries. Raises
    {!Invalid} on negative probabilities or total mass [> 1]. One pass
    compares each element with the one before it: a list whose elements
    already ascend strictly under [compare] costs those [n - 1] comparisons
    and one copy, with no sort; any other list is sorted ([O(n log n)]
    comparisons). When [compare] ties only equal elements, the result
    does not depend on the order of the list. *)

val empty : compare:('a -> 'a -> int) -> 'a t
(** The zero sub-distribution (total halting). *)

val dirac : compare:('a -> 'a -> int) -> 'a -> 'a t
(** [δ_x] (Section 2.1). *)

val uniform : compare:('a -> 'a -> int) -> 'a list -> 'a t
(** Uniform over a non-empty list (duplicates merged). *)

val scale : Rat.t -> 'a t -> 'a t
(** Multiply all masses by a factor in [0,1]. *)

val items : 'a t -> ('a * Rat.t) list
(** Sorted, strictly positive entries. *)

val support : 'a t -> 'a list
(** [supp(η)] — elements of non-zero probability. *)

val iter : ('a -> Rat.t -> unit) -> 'a t -> unit
(** Iterate over the entries in increasing element order without
    materializing the {!items} list — for the hot loops of the measure
    engine. *)

val fold : ('acc -> 'a -> Rat.t -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over the entries in increasing element order, allocation-free. *)

val prob : 'a t -> 'a -> Rat.t
(** Probability of one element — a binary search on the sorted support. *)

val mass : 'a t -> Rat.t
(** Total probability mass; cached at construction, O(1). *)

val deficit : 'a t -> Rat.t
(** [1 - mass]: the halting probability of a sub-distribution. *)

val is_proper : 'a t -> bool
(** Mass exactly 1 — a probability measure rather than a sub-measure. *)

val size : 'a t -> int
val compare_elt : 'a t -> 'a -> 'a -> int
(** The comparator the distribution was built with. *)

val map : compare:('b -> 'b -> int) -> ('a -> 'b) -> 'a t -> 'b t
(** Pushforward (image measure, Definition 3.5): mass-preserving. *)

val bind : compare:('b -> 'b -> int) -> 'a t -> ('a -> 'b t) -> 'b t
(** Monadic composition: [bind d f] weights each [f x] by [prob d x]. *)

val product : 'a t -> 'b t -> ('a * 'b) t
(** Product measure [η₁ ⊗ η₂] (Section 2.1). *)

val product_list : compare:('a -> 'a -> int) -> 'a t list -> 'a list t
(** n-ary product, as used for joint transitions in Definition 2.5. *)

val filter : ('a -> bool) -> 'a t -> 'a t
(** Restriction (sub-distribution; mass may drop). *)

val normalize : 'a t -> 'a t
(** Conditioning: scale a non-empty sub-distribution up to mass exactly 1
    (the empty distribution stays empty). Used by scheduler combinators
    that restrict a choice to a sub-support — e.g. the fault-budget
    scheduler, which conditions on "no further fault" — without turning
    the removed mass into spurious halting. *)

val expect : ('a -> Rat.t) -> 'a t -> Rat.t
(** Expected value of a rational-valued function. *)

val equal : 'a t -> 'a t -> bool
(** Extensional equality of measures (same support, same masses). *)

val corresponds : f:('a -> 'b) -> 'a t -> 'b t -> bool
(** [η ↔_f η'] of Definition 2.15: [f] restricted to [supp η] is a bijection
    onto [supp η'] preserving probabilities. *)

val sample : Rng.t -> 'a t -> 'a option
(** Draw from the (sub-)distribution; [None] with the deficit probability.
    The draw is {e exact}: each element is returned with exactly its
    rational probability (and [None] with exactly the deficit), by lazy
    binary expansion of a uniform real against the exact cumulative
    masses — no floating point and no fixed sampling grid, so events of
    arbitrarily small probability are correctly weighted. Consumes a
    finite expected number of random bits. Used only by simulation
    drivers and benchmarks, never by the exact measure computations. *)

val sample_bits : (unit -> bool) -> 'a t -> 'a option
(** [sample] against an explicit fair-bit source: [bit ()] must return
    independent fair coin flips; successive calls reveal the binary
    expansion of the uniform draw most-significant bit first. Exposed so
    tests can drive the draw deterministically. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
