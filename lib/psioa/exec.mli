(** Execution fragments, executions and traces (Definition 2.2).

    An execution fragment [α = q⁰ a¹ q¹ a² …] is an alternating sequence of
    states and actions. Fragments here are always finite (the measure layer
    works with depth-bounded cones); they are stored with the step list
    reversed for O(1) extension. *)

type t

val init : Value.t -> t
(** The zero-length fragment at a state. *)

val extend : t -> Action.t -> Value.t -> t
(** [α ⌢ (a, q')] — append one step. *)

val fstate : t -> Value.t
val lstate : t -> Value.t

val length : t -> int
(** [|α|]: number of transitions. *)

val steps : t -> (Action.t * Value.t) list
(** Steps in execution order. *)

val states : t -> Value.t list
(** [q⁰; q¹; …] in order (length + 1 entries). *)

val first_hit : ?prev:t * int -> (Value.t -> bool) -> t -> int
(** [first_hit p e] is the least [j] such that [p] holds at the [j]th
    state of [e] ([List.nth (states e) j]; state [0] is [fstate e]), or
    [length e + 1] when it holds at none. It allocates nothing and visits
    the states out of order, so [p] should be pure.

    [~prev:(e', j')], where [j'] is [first_hit p e'], lets the walk stop
    where [e]'s steps meet [e']'s physically ([==] on the list cells,
    aligned by length): a cone's sibling executions share the cells of
    their common prefix, so only the states below it are tested. When
    the start states are not physically equal, or nothing is shared, as
    for executions decoded separately, [e] is walked whole. *)

val actions : t -> Action.t list

val of_steps : Value.t -> (Action.t * Value.t) list -> t

val concat : t -> t -> t
(** [α ⌢ α']; raises [Invalid_argument] unless [fstate α' = lstate α]. *)

val is_prefix : t -> of_:t -> bool
(** [α ≤ α']. *)

val trace : sig_of:(Value.t -> Sigs.t) -> t -> Action.t list
(** The trace of [α]: the restriction to actions external in the signature
    of their source state. [sig_of] is the signature function of the
    automaton the fragment belongs to. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** Agrees with {!equal}, and reads every step of the execution. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
