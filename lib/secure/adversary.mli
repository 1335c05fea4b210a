(** Adversaries for structured automata (Definition 4.24, Lemma 4.25).

    An adversary [Adv] for [(A, EAct_A)] is a PSIOA, partially compatible
    with [A], such that at every reachable composite state (i) the
    adversary inputs of [A] are outputs of [Adv] — the adversary drives the
    attack surface — and (ii) [Adv] never touches the environment actions
    of [A]. *)

open Cdse_psioa

exception
  Not_adversary of {
    structured : string;  (** name of the structured automaton *)
    adversary : string;  (** name of the candidate adversary *)
    state : Value.t;  (** reachable composite state where the check failed *)
    condition : string;  (** which Definition 4.24 condition was violated *)
    action : Action.t option;  (** a concrete offending action, when one exists *)
  }
(** Raised by {!check_exn}; a printer is registered, so an uncaught
    violation renders both automaton names, the composite state and the
    offending action. *)

val check : structured:Structured.t -> Psioa.t -> (unit, string) result
(** Verify partial compatibility and the two Definition 4.24 conditions
    in one {!Structured.sweep} of the reachable states of [A ‖ Adv]. The
    [Error] carries the rendered {!Not_adversary} — automaton names,
    composite state and offending action. Raises
    {!Structured.Universe_truncated} when [A ‖ Adv] reaches more than
    {!Psioa.default_max_states} states, as do {!check_exn},
    {!is_adversary} and {!full_control}: no verdict comes from a
    truncated sweep. *)

val check_exn : structured:Structured.t -> Psioa.t -> unit
(** Like {!check} but raises {!Not_adversary} on violation. *)

val is_adversary : structured:Structured.t -> Psioa.t -> bool

val full_control : structured:Structured.t -> Psioa.t -> bool
(** The stronger condition assumed by the dummy-adversary reduction
    (Lemma D.1): additionally every adversary output of [A] is an input of
    [Adv], so all [AAct] traffic flows through the adversary. Two sweeps:
    {!is_adversary}'s, then one for this condition. *)

val silent_takeover : Psioa.t -> Psioa.t
(** [silent_takeover a]: the adversarial reinterpretation of a member over
    the {e same} state space in which every locally controlled action is
    silenced — inputs are still absorbed with [a]'s own transitions (so
    input-enabledness towards composition partners is preserved and the
    state keeps tracking the protocol), but the member never outputs or
    steps internally again. The canonical [~adversarial] argument for
    [Fault.compromise] when the attack is denial of participation (a
    taken-over validator that receives proposals but never votes). States
    with an empty signature stay empty, preserving PCA destruction. *)

val nobody : unit -> Psioa.t
(** The inert adversary, named ["nobody"]: one state, empty signature.
    It is an adversary for any [A] with no adversary inputs (every [AAct_A]
    action an output of [A]), and its own simulator; with it on both
    sides, a [≤_SE] check compares the two systems with their attack
    surfaces hidden. Each call builds a fresh automaton, so the signature
    counts of one check do not depend on earlier checks. *)
