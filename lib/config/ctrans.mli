(** Configuration transitions (Definitions 2.13–2.14).

    The {e preserving} transition [C ⇀ η_p] moves the participating member
    automata jointly (product measure) with the automaton set unchanged.
    The {e intrinsic} transition [C ⟹_φ η] additionally creates the fresh
    automata [φ] in their start states and then reduces every outcome,
    destroying members that reached an empty-signature state. *)

open Cdse_prob
open Cdse_psioa

val preserving : Registry.t -> Config.t -> Action.t -> Config.t Dist.t option
(** [C ⇀ η_p] (Definition 2.13). [None] when the action is not in
    [sig-hat(C)]. Each member's signature at its current state is
    evaluated once: [sig(C)] ({!Config.signature_of_sigs}) and the
    member's participation both come from it. *)

val intrinsic :
  Registry.t -> Config.t -> Action.t -> created:string list -> Config.t Dist.t option
(** [C ⟹_φ η] (Definition 2.14): preserving transition, extension of every
    outcome with the members of [φ] at their start states, then reduction
    (probabilities of outcomes mapping to the same reduced configuration
    are summed). Created identifiers already present in [C] are ignored,
    matching the [φ ∩ A = ∅] side condition. Reduction then reads each
    outcome member's signature at its new state (Definition 2.12). *)
