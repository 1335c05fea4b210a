(** Structured PSIOA (Definitions 4.17–4.19).

    A structured PSIOA partitions each state's external actions into
    {e environment} actions [EAct] (the protocol's functional interface)
    and {e adversary} actions [AAct = ext ∖ EAct] (the attack surface).
    Compatibility additionally demands that shared actions be environment
    actions of both parties (Definition 4.18), so composition never fuses
    automata through their attack surfaces. *)

open Cdse_psioa

type t

val make : Psioa.t -> eact:(Value.t -> Action_set.t) -> t
val psioa : t -> Psioa.t
val name : t -> string

val eact : t -> Value.t -> Action_set.t
(** [EAct_A(q) ⊆ ext(A)(q)]. *)

val aact : t -> Value.t -> Action_set.t
(** [AAct_A(q) = ext(A)(q) ∖ EAct_A(q)]. This and the other per-state
    parts below evaluate [A]'s signature at [q] once. *)

val ei : t -> Value.t -> Action_set.t
(** Environment inputs [EAct ∩ in]. *)

val eo : t -> Value.t -> Action_set.t
val ai : t -> Value.t -> Action_set.t
val ao : t -> Value.t -> Action_set.t

val aact_universe : ?max_states:int -> ?max_depth:int -> t -> Action_set.t
(** The underlined [AAct_A]: union of [AAct_A(q)] over the reachable
    states a breadth-first sweep explores within the limits — the union
    over the explored prefix, with no sign of truncation. No verdict and
    no construction calls it: {!Emulation.hidden_system} reads
    [AAct_A(q_A)] state by state, and the alphabets of automata built
    apart from [A] (the dummy adversary, Theorem 4.30's
    {!Emulation.composite_simulator}) are {!ai_universe} ∪
    {!ao_universe}, which refuse a truncated sweep. *)

exception Universe_truncated of { automaton : string; max_states : int }
(** Raised by {!sweep}, and so by every alphabet and check built on it,
    when [automaton] reaches more than [max_states] states: the result
    would miss the states beyond. *)

val sweep : Psioa.t -> Value.t list
(** Every reachable state, in breadth-first order. Raises
    {!Universe_truncated} when the automaton reaches more than
    {!Psioa.default_max_states} states. *)

val ai_universe : t -> Action_set.t
(** Union of [AI_A(q)] over every reachable state: the dummy adversary's
    command alphabet. Raises {!Universe_truncated} when [A] reaches more
    than {!Psioa.default_max_states} states; an alphabet from a truncated
    sweep would silently lack actions. *)

val ao_universe : t -> Action_set.t
(** Union of [AO_A(q)], as {!ai_universe}. *)

val validate : ?max_states:int -> t -> (unit, string) result
(** Check the PSIOA constraints and [EAct_A(q) ⊆ ext(A)(q)] at every
    state of one {!Psioa.check_reachable} sweep: a sweep cut by
    [max_states] (default {!Psioa.default_max_states}) is an [Error]. *)

val compatible : t -> t -> bool
(** Definition 4.18: partial compatibility of the underlying PSIOA, plus
    "every shared action is an environment action of both" at reachable
    composite states — checked in one {!sweep} of {!Compose.pair}, so it
    raises {!Universe_truncated} rather than answer from a truncated
    sweep. *)

val compose : t -> t -> t
(** Definition 4.19: [A₁ ‖ A₂] with [EAct = EAct₁ ∪ EAct₂] (pointwise on
    pair states). *)

val hide : t -> (Value.t -> Action_set.t) -> t
(** [hide((A, EAct_A), S) = (hide(A, S), EAct_A ∖ S)] (Definition 4.17). *)

val rename : t -> Rename.t -> t
(** Apply an action renaming to the automaton and both partitions. *)
