(** b-time-bounded automata (Definitions 4.1–4.2) and the boundedness
    preservation lemmas (Lemmas 4.3 and 4.5).

    A PSIOA is [b]-time-bounded when (1) every state/action/transition
    encoding is at most [b] bits, (2) the decoding machines answer within
    [b] meter units, and (3) the next-state machine runs within [b] units.
    {!measure_psioa} computes the smallest such [b] over the explored state
    space; {!measure_pca} additionally covers the configuration, created and
    hidden-actions machines of Definition 4.2.

    Experiments E1/E2 use these reports to validate the {e shape} of the
    lemmas: [bound (A₁‖A₂) ≤ c_comp · (bound A₁ + bound A₂)] and
    [bound (hide (A, S)) ≤ c_hide · (bound A + b')]. *)

open Cdse_psioa

type report = {
  max_part_bits : int;  (** item 1: largest ⟨q⟩/⟨a⟩/⟨tr⟩ encoding *)
  max_decode_cost : int;  (** item 2: worst cost over M_start/M_sig/M_trans/M_step *)
  max_state_cost : int;  (** item 3: worst M_state cost *)
  bound : int;  (** the inferred [b]: max of the above *)
  states_explored : int;
}

val measure_psioa : ?max_states:int -> ?max_depth:int -> Psioa.t -> report
val measure_pca : Cdse_config.Pca.t -> report

val is_time_bounded : ?max_states:int -> ?max_depth:int -> Psioa.t -> b:int -> bool
(** Definition 4.1 on the explored space. *)

val comp_ratio : report -> report -> report -> float
(** [comp_ratio r1 r2 r12 = bound r12 / (bound r1 + bound r2)] — the
    empirical [c_comp] of Lemma 4.3; the lemma predicts this is bounded by
    a constant independent of the automata. *)

val hide_ratio : before:report -> after:report -> recognizer_bits:int -> float
(** Empirical [c_hide] of Lemma 4.5. *)
