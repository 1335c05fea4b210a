(** Composable fault injection for PSIOA and PCA.

    The paper's motivation is that dynamic creation/destruction
    (Definitions 2.12/2.14) and the emulation slack [ε] survive hostile
    contexts, yet faults are usually modelled ad hoc per example (the
    committee's hand-rolled [crash] input). This module makes adversarial
    interference a {e library-level combinator}, in the spirit of the
    task-PIOA line where the adversary is an ordinary composable component:

    - {!crash_stop} / {!crash_recover} wrap any PSIOA with crash (and
      recover) actions. The dead state keeps absorbing the inputs of the
      crash-time signature while its locally controlled actions vanish —
      the signature {e shrinks} exactly as Definition 2.1's state-dependent
      signatures allow, and composition partners stay compatible.
    - {!compromise} wraps any PSIOA with a mid-run {e takeover}: a
      scheduled [compromise] input swaps the member's transition function
      for an adversary-controlled one over the same state space (and
      [restore] swaps back) — components that turn bad, not merely
      crash. {!compromise_budget} caps takeovers at k-of-n.
    - {!lossy_channel} / {!dup_channel} / {!delay_channel} interpose an
      adversarial channel PSIOA between two components: the sender's
      outputs are {!Rename}d onto a wire, the channel re-emits them, and
      drop/duplicate/reorder faults are ordinary locally controlled
      actions that any scheduler interleaves and {!Cdse_sched.Measure}
      quantifies exactly.
    - {!injector} turns free fault inputs (such as the committee's
      [crash_i]) into scheduler-visible outputs of a composed component.
    - {!budget} caps the {e total} number of injected faults across a
      whole scheduler schema, so "commit probability under ≤ k crashes"
      is a single exact [reach_prob] query.

    Every fault action follows the naming conventions recognized by
    {!default_is_fault}, so budgets work across combinators without
    registration. *)

open Cdse_psioa
open Cdse_sched

(** {2 Crash transformers} *)

val crash_action : string -> Action.t
(** [crash_action n] is the conventional crash input [n ^ ".crash"]. *)

val recover_action : string -> Action.t
(** [recover_action n] is [n ^ ".recover"]. *)

val crash_stop : Psioa.t -> Psioa.t
(** [crash_stop a] wraps [a] with a crash-stop fault: every live state
    gains {!crash_action} on the automaton name as an input; firing it
    moves to a dead state that remembers the crash-time state, absorbs
    (self-loops) the inputs that were enabled there, and has no locally
    controlled actions. With zero crashes injected the wrapper is
    trace-equivalent to [a] (the extra input is free and the standard
    schedulers never fire inputs). Raises {!Sigs.Not_disjoint} lazily if
    the crash action collides with a locally controlled action of [a]. *)

val crash_recover : Psioa.t -> Psioa.t
(** Like {!crash_stop}, but the dead state also accepts
    {!recover_action} on the automaton name, returning to the start
    state (a reboot loses volatile state). *)

(** {2 Dynamic compromise}

    Components that {e turn adversarial mid-run} — the threat model of the
    dynamic-compromise literature, where a member is not merely crashed
    but taken over: its transition function is swapped for an
    adversary-controlled one at a scheduled point, and the protocol must
    keep emulating its ideal functionality as long as at most [k] of [n]
    members are compromised. *)

val compromise_action : string -> Action.t
(** [compromise_action n] is the conventional takeover input
    [n ^ ".compromise"]. *)

val restore_action : string -> Action.t
(** [restore_action n] is [n ^ ".restore"]. *)

val compromise : adversarial:Psioa.t -> Psioa.t -> Psioa.t
(** [compromise ~adversarial a] wraps [a] with a mid-run takeover: every
    honest state gains {!compromise_action} on the automaton name as an
    input; firing it swaps the transition function for [adversarial]'s
    {e at the same underlying state}, and the evil states accept
    {!restore_action} to swap back. [adversarial] must share [a]'s
    state space (it is an adversarial reinterpretation of the member —
    e.g. a leaky cipher over the honest protocol's states, or
    {!Cdse_secure.Adversary.silent_takeover}[ a]); the swap is then the
    identity on states and signatures stay per-state disciplined
    (Definition 2.1), so composition, [hidden_system] and
    [Emulation.check] apply unchanged.

    Signature emptiness is preserved in both modes: a destroyed member
    offers neither extra input, so PCA configuration reduction still
    removes it, and with zero compromises injected the wrapper is
    trace-equivalent to [a] (the extra input is free; standard schedulers
    never fire inputs). Compose with {!injector} over the compromise
    actions to put takeovers under scheduler control, and meter them with
    {!compromise_budget}. Raises {!Sigs.Not_disjoint} lazily if an extra
    input collides with a locally controlled action. *)

val is_compromised : Value.t -> Value.t option
(** The underlying state if the wrapper state is currently adversarial. *)

(** {2 Channel interposition}

    [lossy_channel ~name ~acts ()] builds an adversarial channel PSIOA
    whose inputs are the {!wire}-renamed versions of [acts] and whose
    outputs re-emit the original actions in FIFO order. Interpose it with
    {!via}: the sender's outputs in [acts] are renamed onto the wire, the
    channel is composed in between, and the wire actions are hidden —
    faults become locally controlled actions of the composite. All three
    channels are input-enabled: a message arriving on a full buffer
    (capacity [cap], default 8) is absorbed, so size [cap] above the
    workload when lossless transport matters. *)

val wire : channel:string -> Action.t -> Action.t
(** The on-the-wire renaming of an interposed action: the name becomes
    [channel ^ "/" ^ name] (payload untouched). Injective for any fixed
    channel name. *)

val lossy_channel : ?cap:int -> name:string -> acts:Action.t list -> unit -> Psioa.t
(** FIFO relay with a [name ^ ".drop"] internal fault that discards the
    buffer head. Zero drops = perfect FIFO transport. *)

val dup_channel : ?cap:int -> name:string -> acts:Action.t list -> unit -> Psioa.t
(** FIFO relay with a [name ^ ".dup"] internal fault that duplicates the
    buffer head (delivered twice, in order). *)

val delay_channel : ?cap:int -> name:string -> acts:Action.t list -> unit -> Psioa.t
(** FIFO relay with a [name ^ ".skip"] internal fault that rotates the
    buffer head to the tail: [k] skips buy arbitrary reordering/delay at
    a budget of [k] fault actions. *)

val via : channel:Psioa.t -> acts:Action.t list -> Psioa.t -> Psioa.t -> Psioa.t
(** [via ~channel ~acts sender receiver]: rename [sender]'s outputs in
    [acts] onto [channel]'s wire, compose
    [sender' ‖ channel ‖ receiver], and hide the wire actions
    (Definition 2.7) so only the delivered actions stay external. *)

(** {2 Fault injection for free inputs} *)

val injector : ?name:string -> ?each:int -> faults:Action.t list -> unit -> Psioa.t
(** An adversary PSIOA whose outputs are exactly [faults], each fired at
    most [each] times (default 1). Composing it with an automaton that
    has those actions as free inputs (e.g. the committee's [crash_i])
    makes the faults locally controlled, so the standard schedulers
    interleave them and {!budget} can meter them. The injector's
    signature empties once every fault is spent. *)

(** {2 Budgets} *)

type kind = Crash | Recover | Drop | Dup | Skip | Compromise | Restore
(** The library's fault-action kinds, as counted by the [fault.*]
    observability counters ({!Cdse_obs.Obs}). *)

val kind_name : kind -> string
(** Lowercase name, as used in action suffixes and counter names. *)

val fault_kind : Action.t -> kind option
(** Structural classification of an action name by its final dotted
    component: [crash]/[recover]/[compromise]/[restore] with an optional
    trailing numeric instance index ([n.crash], [n.crash3]), and the exact
    channel-fault suffixes [drop]/[dup]/[skip]. Names like
    [report.crash_count], [x.recovery], [sys.compromised] or [dropout]
    are {e not} faults. *)

val default_is_fault : Action.t -> bool
(** [fault_kind a <> None] — the fault predicate of {!budget_sched} and
    {!budget}, and the default one of {!count_faults} and
    {!budget_first_enabled}. *)

val is_compromise : Action.t -> bool
(** [fault_kind a = Some Compromise] — the predicate metered by
    {!compromise_budget}. Restores are deliberately {e not} counted: the
    k-of-n budget caps takeovers, and handing a member back never costs
    the adversary anything. *)

val count_faults : ?is_fault:(Action.t -> bool) -> Exec.t -> int
(** Number of fault actions along an execution fragment. *)

val budget_sched : int -> Scheduler.t -> Scheduler.t
(** [budget_sched k σ] behaves as [σ] until [k] fault actions
    ({!default_is_fault}) have been
    scheduled, then conditions every later choice on the non-fault
    support (renormalized to the choice's original mass, so halting
    probability is unchanged and liveness of the non-faulty protocol is
    preserved). When a post-budget choice is {e all} faults there is no
    non-faulty support to condition on: the scheduler halts deliberately
    — the choice becomes empty with deficit 1 and the measure engine
    books the execution's remaining mass as halting mass, keeping the
    total measure proper. Each such halt increments the
    [fault.budget.halt] counter. *)

val budget : int -> Schema.t -> Schema.t
(** The schema transformer (Definition 3.2): every scheduler the schema
    produces is wrapped by {!budget_sched}, capping total injected faults
    at [k] across the whole quantification domain. *)

val budget_first_enabled :
  ?is_fault:(Action.t -> bool) -> ?avoid:(Action.t -> bool) -> int -> Psioa.t -> Scheduler.t
(** The deterministic budgeted scheduler: the least locally controlled
    enabled action that is neither in [avoid] (default: nothing) nor a
    spent fault — a fault action is eligible only while fewer than [k]
    faults occurred along the history. Unlike {!budget_sched} over
    {!Scheduler.first_enabled} (whose dirac choice on a spent fault
    filters to a deliberate halt), the budget participates in the pick
    itself, so at budget the scheduler continues as first-enabled of the
    fault-free protocol. [avoid] excludes actions wholesale (e.g. the
    committee's [retire] outputs, which would otherwise deterministically
    shrink the membership before any block is submitted). Not memoryless:
    the choice depends on the history's fault count. *)

val compromise_budget : ?avoid:(Action.t -> bool) -> int -> Schema.t
(** The k-of-n compromise cap as a one-scheduler schema:
    [budget_first_enabled ~is_fault:is_compromise k] — at most [k]
    takeovers ({!is_compromise} actions) along any schedule, restores
    uncounted. Used by experiment E18 to sweep [k] against a protocol's
    tolerance threshold. *)
