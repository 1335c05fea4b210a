(** Schedulers (Definition 3.1).

    A scheduler of a PSIOA [A] maps each finite execution fragment [α] to a
    discrete {e sub}-probability measure over the transitions enabled at
    [lstate α]. Because a PSIOA has exactly one transition per enabled
    action (transition determinism, Definition 2.1), choosing a transition
    is choosing an action, so our schedulers return sub-distributions over
    actions. Mass deficit is the probability of halting after [α]. *)

open Cdse_prob
open Cdse_psioa

type t = {
  name : string;
  memoryless : bool;
  validated : bool;
  choose : Exec.t -> Action.t Dist.t;
}
(** [choose α] must be supported on [sig-hat(A)(lstate α)];
    {!validate_choice} enforces this at measure-computation time.

    [memoryless] declares that [choose α] depends on [α] only through
    [(length α, lstate α)] — not on the rest of the history. The measure
    engine ({!Measure}) exploits this to key its validated-choice cache by
    [(length, last state)] instead of whole executions, and its [`Quotient]
    level to merge executions that share their future.
    It is a promise, not a checked property: defaults to [false] in
    {!make}, and all the standard schedulers below set it.

    [validated] declares that [choose] only ever returns actions drawn from
    the signature of the last state — true of every scheduler below, since
    they all pick from the enabled local pool by construction.
    {!validate_choice} then skips the (redundant) membership re-check.
    Also a promise; defaults to [false] in {!make}. *)

exception Bad_choice of { scheduler : string; state : Value.t; action : Action.t }

val make : ?memoryless:bool -> ?validated:bool -> name:string -> (Exec.t -> Action.t Dist.t) -> t

val is_memoryless : t -> bool
(** The {!t.memoryless} promise ([bounded] preserves it). *)

val halt : t
(** Halts immediately (the empty sub-distribution everywhere). *)

(** The three standard schedulers draw from the {e locally controlled}
    actions (output ∪ internal) of the last state: in a closed composition
    every action is locally controlled by some component, while free inputs
    of an open composite are the environment's business and are only fired
    by explicit ({!oblivious} or custom) schedulers. *)

val uniform : Psioa.t -> t
(** Uniform over the locally controlled enabled actions; halts when there
    are none. *)

val first_enabled : Psioa.t -> t
(** Deterministic: always the least locally controlled enabled action,
    the lesser of the least output and the least internal action. The
    pick builds no union of the two. *)

val first_enabled_where : ?name:string -> (Exec.t -> Action.t -> bool) -> Psioa.t -> t
(** [first_enabled_where pred a]: deterministic — the least locally
    controlled enabled action [act] with [pred e act], where [e] is the
    whole execution so far. Halts (empty choice, deficit 1) when no pool
    action passes. Because [pred] may inspect the history the scheduler is
    {e not} memoryless; it is validated (picks from the pool by
    construction). The pick is the lesser of the first output and the
    first internal action that pass, so it builds no union and calls
    [pred] only until each search finds one. The predicate-filtered
    backbone of {!Cdse_fault.Fault.budget_first_enabled}. *)

val round_robin : Psioa.t -> t
(** Deterministic: at step [i], the [(i mod n)]-th of the [n] locally
    controlled enabled actions. *)

val oblivious : Psioa.t -> Action.t list -> t
(** Off-line scheduler: a fixed action sequence decided in advance; at step
    [i] it fires the [i]-th action if enabled and halts otherwise (and halts
    when the list is exhausted). Oblivious schedulers are
    creation-oblivious in the sense of Section 4.4: their decisions do not
    depend on the states (hence not on which sub-automata are alive). *)

val oblivious_local : Psioa.t -> Action.t list -> t
(** Like {!oblivious}, but the scripted action additionally has to be
    locally controlled at the current state ({!Sigs.classify} says output
    or internal): free inputs of an open composite are never fired. The closed-world off-line scheduler — this
    is the creation-oblivious schema used by the monotonicity results of
    Section 4.4. *)

val bounded : int -> t -> t
(** Definition 4.6: [bounded b σ] halts on every fragment with [|α| ≥ b],
    so it never executes more than [b] actions. Its name is [σ]'s,
    prefixed with [bounded[b]]. *)

val validate_choice : Psioa.t -> t -> Exec.t -> Action.t Dist.t
(** [choose] with the Definition 3.1 support condition enforced; raises
    {!Bad_choice} if the scheduler picks a disabled action. Skipped for
    {!t.validated} schedulers, whose choices satisfy the condition by
    construction. *)
