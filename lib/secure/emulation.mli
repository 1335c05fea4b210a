(** Dynamic secure emulation (Definition 4.26) and its composability
    (Theorem 4.30 / D.2) — the paper's main contribution.

    [A ≤_SE B] holds when for every polynomially-bounded adversary [Adv]
    for [A] there is a simulator [Sim] for [B] with
    [hide(A ‖ Adv, AAct_A) ≤_{neg,pt} hide(B ‖ Sim, AAct_B)].

    The checker quantifies over an explicit adversary list and takes the
    simulator synthesis as a function — for concrete protocols the
    simulator is protocol-specific (see {!Cdse_crypto.Secure_channel}),
    while for the composability theorem it is the generic construction of
    the proof: [Sim = hide(DSim¹ ‖ … ‖ DSimᵇ ‖ g(Adv), g(AAct_Â))], built
    here by {!composite_simulator}. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched

val hidden_system : Structured.t -> Psioa.t -> Psioa.t
(** [hide(A ‖ Adv, AAct_A)]: at each composite state [(q_A, q_Adv)] the
    outputs in [AAct_A(q_A)] become internal (Defs 2.6–2.7 with the
    state-indexed set of Def 4.17). Building it explores nothing; the
    signature is computed per state as the measure reaches it. *)

val check :
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  eps:Rat.t ->
  q1:int ->
  q2:int ->
  depth:int ->
  adversaries:Psioa.t list ->
  sim_for:(Psioa.t -> Psioa.t) ->
  real:Structured.t ->
  ideal:Structured.t ->
  Impl.verdict
(** Definition 4.26 on an instance: for each listed adversary [Adv], verify
    [hide(real ‖ Adv, AAct) ≤ hide(ideal ‖ sim_for Adv, AAct)] with the
    approximate-implementation checker, in its one configuration
    ({!Impl.engine}: every f-dist is the image of the uncompressed
    measure). *)

exception
  Check_failed of {
    real : string;  (** name of the real structured automaton *)
    ideal : string;  (** name of the ideal functionality *)
    worst : Rat.t;  (** worst best-match distance over the verdict *)
    witness : string;
        (** first failing detail line: environment, scheduler, matched
            candidate and (from {!Impl.approx_le}) the distinguishing
            observation carrying the largest mass gap *)
  }
(** Raised by {!check_exn}; a printer is registered, so an uncaught
    failure renders both automaton names, the exact slack and the
    distinguishing witness. *)

val check_exn :
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  eps:Rat.t ->
  q1:int ->
  q2:int ->
  depth:int ->
  adversaries:Psioa.t list ->
  sim_for:(Psioa.t -> Psioa.t) ->
  real:Structured.t ->
  ideal:Structured.t ->
  Impl.verdict
(** Like {!check} but raises {!Check_failed} when the verdict does not
    hold. *)

type component = {
  real : Structured.t;
  ideal : Structured.t;
  g : Dummy.renaming;  (** fresh renaming of this component's AAct *)
  dsim : Psioa.t;
      (** the simulator promised by [realᵢ ≤_SE idealᵢ] for this
          component's dummy adversary *)
}

val composite_simulator : components:component list -> adv:Psioa.t -> Psioa.t
(** The Theorem 4.30 construction: rename the composite adversary's
    interactions through [g = g¹ ∪ … ∪ gᵇ], attach every component's
    dummy-simulator, and hide the internalised renamed actions:
    [Sim = hide(DSim¹ ‖ … ‖ DSimᵇ ‖ g(Adv), g(AAct_Â))]. *)

val dummy_for : component -> Psioa.t
(** [Dummy(realᵢ, gᵢ)] — the dummy adversary each component's emulation is
    instantiated with inside the composability proof. Raises
    {!Structured.Universe_truncated} as {!Structured.ai_universe} does. *)
