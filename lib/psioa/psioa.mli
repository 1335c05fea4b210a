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

exception Sweep_truncated of { automaton : string; max_states : int }
(** Raised by {!universal_actions} and {!Compose.partially_compatible}
    when [automaton] reaches more than [max_states] states (within the
    caller's depth, where one is given): an answer from the explored
    prefix would miss the states beyond the cap. *)

val make :
  name:string ->
  start:Value.t ->
  signature:(Value.t -> Sigs.t) ->
  transition:(Value.t -> Action.t -> Value.t Dist.t option) ->
  t
(** [transition q a] must be [Some η] exactly when [a ∈ sig-hat(A)(q)]
    (the action-enabling condition E1); {!validate} checks this on the
    explored state space. [signature] must be a function of the state
    alone (Definition 2.1): {!signature} may answer a read from an earlier
    evaluation instead of calling it. *)

val name : t -> string
(** The automaton identifier — the element of [Autids] naming this
    automaton (Section 2.2). *)

val start : t -> Value.t

val signature : t -> Value.t -> Sigs.t
(** [sig(A)(q)]. Each automaton keeps one entry, its last evaluation:
    a read at the physically same ([==]) state returns the stored
    signature, and a read at any other state, equal or not, evaluates
    the signature and replaces the entry. A signature that raises stores
    nothing. The entry is one mutable field holding an immutable pair,
    so threads sharing an automaton each see an old or a new entry,
    never a mix. A counting or side-effecting [signature] passed to
    {!make} therefore sees evaluations, not reads. Counters
    [psioa.sig.last.hit] and [psioa.sig.last.miss] count the reads that
    hit and missed the entry. *)

val transition : t -> Value.t -> Action.t -> Value.t Dist.t option

val enabled : t -> Value.t -> Action_set.t
(** [sig-hat(A)(q)]: all actions executable at [q], read through
    {!signature}. *)

val is_enabled : t -> Value.t -> Action.t -> bool
(** [a ∈ sig-hat(A)(q)], from one {!signature} read at [q] and
    at most three set lookups, without building {!enabled}'s union. A
    caller that needs the signature at [q] for more than this test should
    read it once with {!signature} and test it with {!Sigs.mem}, as
    {!Compose} and {!Cdse_config.Ctrans} do. *)

val step : t -> Value.t -> Action.t -> Value.t Dist.t
(** Raises {!Not_enabled} when [a ∉ sig-hat(A)(q)]. *)

val rename_auto : string -> t -> t
(** Change only the automaton identifier (not its actions). The result
    starts with no last-evaluation entry. *)

val memoize : t -> t
(** Cache signature and transition lookups per state (ablation A2). One
    memo per automaton: [memoize m] returns [m] itself when [m] is
    memoized already (or a {!rename_auto} of one), so a model memoized
    once (the daemon's registry) serves every run that reads it. The
    result is observationally identical, and starts with no
    last-evaluation entry of its own.

    Threads may share the memo. Each table access takes its one mutex;
    evaluations run outside it, so two threads that miss one key may both
    evaluate it, and the first result stored is the one every reader
    gets: one physical [Dist] per [(state, action)], sound by Def 2.1. A
    missing signature is read through {!signature} of the wrapped
    automaton, filling its last-evaluation entry. Past {!memo_cap}
    entries nothing more is stored. The tables hash a state all the way
    down ({!Value.hash}). Counters [psioa.memo.sig.hit]/[miss] and
    [psioa.memo.step.hit]/[miss] count its lookups. *)

val memo_cap : int
(** Entries one {!memoize} memo stores, signatures and transitions
    together: [65_536] ([2^16]). *)

val memo_entries : t -> int
(** The entries the memo of a {!memoize} result stores, at most
    {!memo_cap}; [0] for an automaton that is not memoized. *)

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
(** [acts(A)]: the union of the signatures of the states of one
    {!reachable_trunc} sweep. Raises {!Sweep_truncated} when [max_states]
    (default {!default_max_states}) cut the sweep. [max_depth] is the
    caller's horizon, and a sweep it bounds is complete. *)

val check_reachable :
  ?max_states:int ->
  ?max_depth:int ->
  t ->
  (Value.t -> (unit, string) result) ->
  (unit, string) result
(** [check_reachable a check] runs [check] on the states of one
    {!reachable_trunc} sweep of [a], in visit order, and returns the
    first [Error]. A signature that raises {!Sigs.Not_disjoint} during the
    sweep is an [Error] too. If every explored state passes but
    [max_states] (default {!default_max_states}) cut the sweep, the
    result is an [Error] naming [a] and the cap: the states beyond it
    were never checked. [max_depth] is the caller's horizon, and a sweep
    it bounds is complete. *)

val check_state : t -> Value.t -> (unit, string) result
(** The PSIOA constraints at one state: signature components disjoint,
    transitions defined exactly on the enabled actions, every transition
    distribution proper. *)

val validate : ?max_states:int -> ?max_depth:int -> t -> (unit, string) result
(** {!check_state} on every state of one {!check_reachable} sweep, so a
    sweep cut by [max_states] is an [Error]. *)

val pp : Format.formatter -> t -> unit
