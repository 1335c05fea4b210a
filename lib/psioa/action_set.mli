(** Finite sets of actions.

    The paper allows countable action sets per state; the implementation
    restricts to finite explicit sets (DESIGN.md substitution table):
    depth-bounded executions only ever inspect finitely many actions.
    This is [Set.Make(Action)] plus a few conveniences. *)

include Set.S with type elt = Action.t

val disjoint3 : t -> t -> t -> bool
(** Pairwise disjointness of the three signature components
    (Definition 2.1). *)

val map_actions : (Action.t -> Action.t) -> t -> t
(** Image of a set under an action transformation (used by renamings;
    injectivity is checked by callers through cardinality). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
