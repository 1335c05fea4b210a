(** Probabilistic signature input/output automata (Definition 2.1).

    A PSIOA [A = (Q_A, q̄_A, sig(A), D_A)] has a countable state space, a
    unique start state, a state-dependent signature, and for every state [q]
    and enabled action [a] a unique transition distribution
    [η_(A,q,a) ∈ Disc(Q_A)]. States are {!Value.t}; the signature and
    transition functions are total OCaml functions, with the state space
    generated lazily by reachability. *)

open Cdse_prob

type t

exception Not_enabled of { automaton : string; state : Value.t; action : Action.t }

val make :
  name:string ->
  start:Value.t ->
  signature:(Value.t -> Sigs.t) ->
  transition:(Value.t -> Action.t -> Value.t Dist.t option) ->
  t
(** [transition q a] must be [Some η] exactly when [a ∈ sig-hat(A)(q)]
    (the action-enabling condition E1); {!validate} checks this on the
    explored state space. *)

val name : t -> string
(** The automaton identifier — the element of [Autids] naming this
    automaton (Section 2.2). *)

val start : t -> Value.t
val signature : t -> Value.t -> Sigs.t
val transition : t -> Value.t -> Action.t -> Value.t Dist.t option

val enabled : t -> Value.t -> Action_set.t
(** [sig-hat(A)(q)]: all actions executable at [q]. *)

val is_enabled : t -> Value.t -> Action.t -> bool
(** [a ∈ sig-hat(A)(q)], from one evaluation of the signature at [q] and
    at most three set lookups, without building {!enabled}'s union. A
    caller that needs the signature at [q] for more than this test should
    evaluate it once with {!signature} and test it with {!Sigs.mem}, as
    {!Compose} and {!Cdse_config.Ctrans} do. *)

val step : t -> Value.t -> Action.t -> Value.t Dist.t
(** Raises {!Not_enabled} when [a ∉ sig-hat(A)(q)]. *)

val rename_auto : string -> t -> t
(** Change only the automaton identifier (not its actions). *)

val memoize : t -> t
(** Cache signature and transition lookups per state (ablation A2). The
    result is observationally identical. The cache is a plain hashtable,
    not safe to share between domains; it hashes a state all the way
    down ({!Value.hash}). *)

val default_max_states : int
(** The state cap of {!reachable} and {!reachable_trunc} when none is
    given: 10_000. *)

val reachable : ?max_states:int -> ?max_depth:int -> t -> Value.t list
(** Breadth-first exploration of the reachable states ([reachable(A)],
    Definition 2.2), truncated by the optional limits (defaults:
    {!default_max_states} states, unlimited depth). *)

val reachable_trunc :
  ?max_states:int -> ?max_depth:int -> t -> Value.t list * bool
(** {!reachable} plus a truncation flag: [true] iff the [max_states] cap
    dropped at least one unexplored state. Exploration stops {e at} the
    cap — no state beyond it is ever materialised — so soundness-sensitive
    callers ({!Bisim}) can reject a truncated state space cheaply. *)

val universal_actions : ?max_states:int -> ?max_depth:int -> t -> Action_set.t
(** [acts(A)] restricted to the explored states: the union of all state
    signatures. *)

val validate : ?max_states:int -> ?max_depth:int -> t -> (unit, string) result
(** Check the PSIOA constraints on the explored state space: signature
    components disjoint, transitions defined exactly on the enabled actions,
    every transition distribution proper. *)

val pp : Format.formatter -> t -> unit
