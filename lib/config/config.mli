(** Configurations (Definitions 2.9–2.12).

    A configuration [C = (A, S)] is a finite set of PSIOA identifiers
    together with a current state for each. Identifiers are resolved
    through a {!Cdse_psioa.Registry.t}. Configurations are the semantic
    objects behind PCA states; they can gain automata (creation, Definition
    2.14) and lose them (reduction of empty-signature members, Definition
    2.12). *)

open Cdse_psioa

type t

exception Duplicate_automaton of string

val make : (string * Value.t) list -> t
(** Build from (identifier, state) pairs. Raises {!Duplicate_automaton} on
    repeated identifiers. *)

val auts : t -> string list
(** [auts(C)]: identifiers, sorted. *)

val entries : t -> (string * Value.t) list
val state_of : t -> string -> Value.t option
(** [map(C)(A)]. *)

val mem : t -> string -> bool
val add : string -> Value.t -> t -> t
val cardinal : t -> int

val signature : Registry.t -> t -> Sigs.t
(** The intrinsic signature [sig(C)] of Definition 2.11:
    [out(C) = ∪ out(Aᵢ)(S(Aᵢ))], [int(C) = ∪ int(...)], and
    [in(C) = (∪ in(...)) ∖ out(C)]. Requires compatibility. *)

val signature_of_sigs : Sigs.t list -> Sigs.t
(** The union step of {!signature}, from member signatures already
    evaluated: [signature reg c] is [signature_of_sigs] of the members'
    signatures at their states, in [entries c] order. Raises
    [Sigs.Not_disjoint] when the union overlaps. *)

val compatible : Registry.t -> t -> bool
(** Definition 2.10: the member signatures are pairwise compatible. *)

val reduce : Registry.t -> t -> t
(** Definition 2.12: drop every member whose current signature is empty —
    the destruction mechanism. *)

val is_reduced : Registry.t -> t -> bool

val start_of : Registry.t -> string list -> t
(** The configuration with each listed automaton in its start state. *)

val union : t -> t -> t
(** Disjoint union, for PCA composition (Definition 2.19). Raises
    {!Duplicate_automaton} if the automaton sets intersect. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_value : t -> Value.t
(** Injective encoding of a configuration as a state value — canonical PCA
    states are these encodings. *)

val of_value : Value.t -> t
(** Inverse of {!to_value}; raises [Invalid_argument] on non-encodings. *)

val pp : Format.formatter -> t -> unit
