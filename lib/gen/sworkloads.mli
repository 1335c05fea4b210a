(** Structured workload automata for the secure layer.

    The running protocol is a tiny adversarially-scheduled relay:

    {v
    env --in(m)--> [proto] --leak(m)--> adversary
    adversary --deliver--> [proto] --out(m)--> env
    v}

    [in]/[out] are environment actions, [leak]/[deliver] adversary actions
    (Definition 4.17), so the fixture exercises both directions of the
    attack surface — which is exactly what the dummy-adversary forwarding
    of Lemma D.1 needs. *)

open Cdse_psioa
open Cdse_secure

(** {2 Relay states (exposed for tests)} *)

val q_idle : Value.t
val q_got : int -> Value.t
val q_sent : int -> Value.t
val q_done : int -> Value.t

val relay : ?alphabet:int list -> string -> Structured.t
(** The relay protocol over the given message alphabet (default [[0]]). *)

val relay_adversary :
  ?alphabet:int list -> proto_name:string -> rename:(string -> string) -> string -> Psioa.t
(** Forwarding adversary: receives leaks, replies with deliver. [rename]
    is applied to every adversary-action name — pass [Fun.id] for the
    unrenamed alphabet, or a [g]-prefix when attaching it behind a dummy
    renaming (Lemma D.1's setting). *)

val relay_env : ?alphabet:int list -> ?m0:int -> proto_name:string -> string -> Psioa.t
(** Environment: sends [proto.in m0], waits for any [proto.out], announces
    [acc]. *)

val eact_touching_adversary : proto_name:string -> string -> Psioa.t
(** Failure-injection fixture: a purported adversary that listens to the
    protocol's {e environment} actions — rejected by Definition 4.24. *)

(** {2 Dynamic compromise}

    The real sides of experiment E18's two [≤_SE] checks, which
    [cdse_cli emulate --compromise] and [examples/compromise.ml] check
    too. Each call builds fresh automata. *)

val compromised_otp : base:(string -> Structured.t) -> string list -> Structured.t
(** [compromised_otp ~base names]: an injector of the channels'
    compromise actions in parallel with each [base n] wrapped by
    [Fault.compromise], whose compromised mode is
    [Secure_channel.real_leaky n] (plaintext in the clear). EAct is the
    channels' [send]/[recv]. [base] is [Secure_channel.real], or
    [real_leaky] for a channel that leaks before any takeover. *)

val compromised_committee : unit -> Structured.t
(** The committee ["cmt"] (3 validators, 1 block, 2-of-3 quorum), each
    validator wrapped by [Fault.compromise] with
    {!Adversary.silent_takeover} as its compromised mode, in parallel
    with an injector of the three compromise actions. *)

val is_retire : Action.t -> bool
(** [cmt.retire*], the chair's bookkeeping: a first-enabled scheduler
    would retire the whole committee before the submit arrives (retire
    sorts before submit), so sweeps of {!compromised_committee} pass it
    as [~avoid] to [Fault.compromise_budget]. *)
