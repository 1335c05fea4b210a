(** Bit-string representations ⟨q⟩, ⟨a⟩, ⟨tr⟩, ⟨C⟩ (Section 4).

    The bounded layer (Definitions 4.1–4.2) constrains the lengths of these
    representations and the running time of machines that decode them.
    States and actions reuse the canonical {!Cdse_psioa.Value} encoding; a
    transition [(q, a, η)] is encoded as the concatenation of ⟨q⟩, ⟨a⟩ and
    the sorted list of [(state, probability)] pairs of [η]; a configuration
    through its value encoding. *)

open Cdse_prob
open Cdse_psioa

val state : Value.t -> Cdse_util.Bits.t
val action : Action.t -> Cdse_util.Bits.t

val transition : Value.t -> Action.t -> Value.t Dist.t -> Cdse_util.Bits.t
(** ⟨tr⟩ for [tr = (q, a, η)]. *)

val config : Cdse_config.Config.t -> Cdse_util.Bits.t
(** ⟨C⟩. *)

val action_set : Action_set.t -> Cdse_util.Bits.t
(** Encoding of hidden-action sets (Definition 4.2). *)

val id_list : string list -> Cdse_util.Bits.t
(** Encoding of created-automata sets [⟨φ⟩] (Definition 4.2). *)
