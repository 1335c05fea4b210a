(** Deterministic workload automata shared by the test suites and the
    benchmark harness (deliverable (d): workload generators).

    Each generator produces a small PSIOA whose exact execution measures
    can be computed by hand. Automata are namespaced by their [name]
    argument, so independently named instances are pairwise compatible. *)

open Cdse_prob
open Cdse_psioa

val act : ?payload:Value.t -> string -> Action.t
(** Convenience action constructor. *)

val coin : ?p:Rat.t -> string -> Psioa.t
(** One (possibly biased) internal flip, then the automaton forever
    announces [name.heads] or [name.tails]. Three states. *)

val counter : ?bound:int -> string -> Psioa.t
(** Emits [name.inc] until the bound, then its signature becomes {e empty}:
    the canonical self-destructing automaton for configuration reduction
    (Definition 2.12). *)

val channel : string -> Psioa.t
(** One-slot channel over messages [0] and [1]: input [name.send(m)] when
    empty, output [name.recv(m)] when full. *)

val sender : channel_name:string -> ?script:int list -> string -> Psioa.t
(** Pushes the scripted messages into a channel's [send] inputs, then
    stops. *)

val receiver : channel_name:string -> string -> Psioa.t
(** Consumes a channel's [recv] outputs of messages [0] and [1],
    remembering the messages seen. *)

val acceptor : watch:(string * Value.t option) list -> string -> Psioa.t
(** The canonical distinguishing environment: waits for any watched action
    (as input), then outputs [acc] — the observation the [accept] insight
    (Definition 3.4) reports. *)

val spawner : ?max_children:int -> string -> Psioa.t
(** Emits [name.spawn] outputs while below its budget; PCA-level created
    mappings turn each spawn into the creation of a child automaton. *)

val fragile : ?p_die:Rat.t -> string -> Psioa.t
(** Its single output kills it with probability [p_die] (default 1/2),
    moving it to an empty-signature state — probabilistic destruction. *)

val broken_no_transition : string -> Psioa.t
(** Failure-injection fixture: an enabled action without a transition
    (violates action enabling, Definition 2.1). *)

val broken_improper : string -> Psioa.t
(** Failure-injection fixture: a transition measure of mass 1/2. *)

val fifo : ?capacity:int -> string -> Psioa.t
(** n-slot FIFO channel over messages [0] and [1]: accepts
    [name.send(m)] while below capacity, offers [name.recv(m)] for the
    oldest message. *)

val timer : ?horizon:int -> string -> Psioa.t
(** Ticks internally [horizon] times, then fires [name.timeout] once. *)

val faulty_channel : seed:int -> Psioa.t
(** Via-spliced faulty channel feeding a compromisable receiver: a
    3-message sender behind a lossy (even [seed]) or reordering delay
    (odd [seed]) channel, with the receiver's adversarial takeover under
    scheduler control through a fault injector. The robustness corner of
    the conformance corpus; callers typically meter the channel faults
    and takeovers together with {!Cdse_fault.Fault.budget_sched}. *)

val random_walk : ?span:int -> string -> Psioa.t
(** Lazy ±1 random walk on [0..span] (clamped), driven by an internal
    step — an unbounded-depth probabilistic measure workload. *)
