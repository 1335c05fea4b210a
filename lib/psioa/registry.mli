(** The [aut : Autids → Auts] mapping of Section 2.2.

    Configuration automata (Definition 2.9) hold {e identifiers} of member
    automata; a registry resolves identifiers to concrete PSIOA. The
    identifier of an automaton is its {!Psioa.name}. *)

type t

exception Unknown_automaton of string

val of_list : Psioa.t list -> t

val find : t -> string -> Psioa.t
(** Raises {!Unknown_automaton}. *)

val mem : t -> string -> bool

val union : t -> t -> t
(** Left-biased union (for PCA composition, Definition 2.19). *)
