(** Structured configuration automata (Definitions 4.20–4.23).

    A structured PCA attaches environment-action mappings to every member
    of every configuration, and derives the PCA-level partition
    [EAct_X(q) = EAct(config(X)(q)) ∖ hidden-actions(X)(q)]
    (Definition 4.22 item 3). Lemma 4.23 (closure under composition) is
    re-checked by {!check_constraint} on any instance. *)

open Cdse_psioa
open Cdse_config

type t

val make : pca:Pca.t -> member_eact:(string -> Value.t -> Action_set.t) -> t
(** [member_eact id q] is [EAct_{aut(id)}(q)] for each automaton of the
    registry. *)

val pca : t -> Pca.t

val eact : t -> Value.t -> Action_set.t
(** The derived [EAct_X(q)] of Definition 4.22. *)

val to_structured : t -> Structured.t
(** The structured PSIOA view of the structured PCA (for use with
    adversaries, dummies and emulation). *)

val compose_pair : t -> t -> t
(** Structured PCA composition (after Definition 4.22); Lemma 4.23
    guarantees the result is again a structured PCA. *)

val check_constraint : ?max_states:int -> ?max_depth:int -> t -> (unit, string) result
(** Verify [EAct_X(q) = EAct(config(X)(q)) ∖ hidden-actions(X)(q)] on the
    states of one {!Psioa.check_reachable} sweep — the Definition 4.22
    invariant, and the content of Lemma 4.23 when applied to a
    composition. A sweep cut by [max_states] is an [Error]. *)
