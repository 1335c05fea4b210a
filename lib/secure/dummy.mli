(** The dummy adversary (Definition 4.27).

    [Dummy(A, g)] is a one-slot forwarder sitting between a structured
    automaton [A] and an outer adversary speaking the [g]-renamed adversary
    alphabet. Its state is a single [pending] cell holding the last
    received action (or ⊥):

    - inputs (constant): [AO_A ∪ g(AI_A)] — everything either side sends;
    - when [pending = a ∈ AO_A], its only output is [g(a)] (forward to the
      outer adversary);
    - when [pending = g(b) ∈ g(AI_A)], its only output is [b] (forward into
      [A]);
    - when [pending = ⊥], no outputs.

    Underlined [AO_A]/[AI_A] are the reachable-state unions computed by
    {!Structured.ao_universe} / {!Structured.ai_universe}. *)

open Cdse_psioa

type renaming = {
  apply : Action.t -> Action.t;
  invert : Action.t -> Action.t option;
      (** [invert (apply a) = Some a]; [None] on actions outside the
          image. *)
}

val prefix_renaming : string -> renaming
(** [g(a)] prefixes the action name — fresh as long as no original action
    name starts with the prefix. *)

val idle : Value.t
(** The start state ([pending = ⊥]). *)

val pending_state : Action.t -> Value.t
(** The state holding [a] as its pending action. *)

val pending_of : Value.t -> Action.t option
(** The pending action of a dummy state, [None] when idle:
    [pending_of (pending_state a) = Some a]. *)

val make : name:string -> ai:Action_set.t -> ao:Action_set.t -> g:renaming -> Psioa.t
(** [Dummy(A, g)] for an automaton with adversary-input universe [ai] and
    adversary-output universe [ao]. *)
