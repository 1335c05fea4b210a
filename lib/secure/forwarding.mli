(** The [Forward^e] / [Forward^s] constructions of Lemma D.1 (dummy
    adversary insertion, Lemma 4.29).

    Setting: a structured automaton [A], a renaming [g] of its adversary
    actions, an environment [E] and an outer adversary [Adv] with full
    control of the attack surface. The lemma compares

    - lhs: [E ‖ g(A) ‖ Adv] — the adversary attached directly, and
    - rhs: [E ‖ hide(A ‖ Dummy(A,g), AAct_A) ‖ Adv] — the dummy forwarder
      inserted in between, its middle component built by
      {!Emulation.hidden_system} (so [AAct_A(q_A)] is hidden state by
      state, exactly as in a [≤_SE] check),

    and constructs, for every scheduler σ of the lhs, a scheduler
    [Forward^s(σ)] of the rhs that replays σ, expanding each adversary
    interaction into a receive-then-forward pair through the dummy. The
    resulting f-dists agree exactly (ε = 0) and the rhs scheduler uses at
    most twice as many steps ([q₂ = 2·q₁]). *)

open Cdse_psioa
open Cdse_sched

type setup

val make_setup :
  structured:Structured.t ->
  g:Dummy.renaming ->
  env:Psioa.t ->
  adv:Psioa.t ->
  unit ->
  setup
(** Computes the adversary-action universes of [A] (the dummy's fixed
    alphabet and the domain of [g]; raises
    {!Structured.Universe_truncated} when [A] reaches more states than
    {!Structured.ai_universe} explores) and assembles both systems. The adversary
    must have {!Adversary.full_control}; this is checked lazily by
    {!check_lemma_d1}. *)

val lhs : setup -> Psioa.t
(** [E ‖ g(A) ‖ Adv] (state shape: [List [q_E; q_A; q_Adv]]). *)

val rhs : setup -> Psioa.t
(** [E ‖ hide(A ‖ Dummy, AAct_A) ‖ Adv] (state shape:
    [List [q_E; Pair (q_A, q_D); q_Adv]]). *)

val dummy : setup -> Psioa.t

val forward_exec : setup -> Exec.t -> Exec.t
(** [Forward^e]: the unique rhs execution [α'] with [α ∼ α']. Raises
    [Invalid_argument] on executions that are not lhs executions. *)

val forward_sched : setup -> Scheduler.t -> Scheduler.t
(** [Forward^s]: replays an lhs scheduler on the rhs; on a fragment that
    just delivered an adversary action to the dummy it deterministically
    fires the forward, otherwise it mirrors σ on the resynchronised lhs
    fragment (halting off-correspondence fragments). *)

type d1_report = {
  distance : Cdse_prob.Rat.t;  (** sup-set distance of the two f-dists *)
  exact : bool;  (** [distance = 0] — the lemma's claim *)
  lhs_steps : int;  (** bound used on the lhs scheduler *)
  rhs_steps : int;  (** bound of the forwarded scheduler ([= 2·lhs]) *)
}

val check_brave :
  setup ->
  insight_of:(Psioa.t -> Insight.t) ->
  sched:Scheduler.t ->
  q1:int ->
  depth:int ->
  bool
(** The checkable bullets of Definition 4.28 (brave pair) on the support
    of the lhs measure: the insight is invariant under hiding the
    adversary alphabet, and [Forward^e] preserves observations
    pointwise. *)

val check_lemma_d1 :
  setup ->
  insight_of:(Psioa.t -> Insight.t) ->
  sched:Scheduler.t ->
  q1:int ->
  depth:int ->
  d1_report
(** Run both systems — σ on the lhs at [depth], [Forward^s σ] on the rhs at
    [2·depth] — and compare observations. *)

val check_lemma_d1_family :
  window:int list ->
  setup_of:(int -> setup) ->
  insight_of:(Psioa.t -> Insight.t) ->
  sched_of:(int -> setup -> Scheduler.t) ->
  q1:(int -> int) ->
  depth:(int -> int) ->
  bool
(** Lemma 4.29 at the family level: exact at every index of the window. *)
