(** State signatures: input / output / internal action partitions.

    Implements Definitions 2.3 (compatible signatures), 2.4 (signature
    composition) and 2.6 (hiding on signatures). A signature is the triple
    [sig(A)(q) = (in(A)(q), out(A)(q), int(A)(q))] of mutually disjoint
    action sets attached to a single state. *)

type t = private { input : Action_set.t; output : Action_set.t; internal : Action_set.t }

exception Not_disjoint of string

val make : input:Action_set.t -> output:Action_set.t -> internal:Action_set.t -> t
(** Raises {!Not_disjoint} if the three sets overlap (constraint of
    Definition 2.1). *)

val of_lists : ?i:Action.t list -> ?o:Action.t list -> ?h:Action.t list -> unit -> t
(** {!make} from action lists: [i] inputs, [o] outputs, [h] internal
    (hidden) actions, each empty by default. *)

val empty : t
(** The empty signature — an automaton in a state with empty signature is
    destroyed by configuration reduction (Definition 2.12). *)

val is_empty : t -> bool

val input : t -> Action_set.t
val output : t -> Action_set.t
val internal : t -> Action_set.t

val all : t -> Action_set.t
(** [sig-hat]: union of the three components. *)

val ext : t -> Action_set.t
(** External actions: input ∪ output. *)

val local : t -> Action_set.t
(** Locally controlled: output ∪ internal. *)

val filter_ext : (Action.t -> bool) -> t -> Action_set.t
(** [Action_set.filter p (ext s)], from the inputs and the outputs
    filtered apart: [ext s] is not built. *)

val mem : Action.t -> t -> bool
(** [a ∈ all s], by at most three lookups; the union is not built. *)

val classify : Action.t -> t -> [ `Input | `Output | `Internal | `Absent ]

val compatible : t -> t -> bool
(** Definition 2.3: no shared outputs, and neither's internal actions appear
    in the other. Checked component by component, by six
    {!Action_set.disjoint} tests; neither [all s1] nor [all s2] is built. *)

val compatible_list : t list -> bool
(** Pairwise compatibility of a set of signatures. *)

val compose : t -> t -> t
(** Definition 2.4: [(in ∪ in' − (out ∪ out'), out ∪ out', int ∪ int')],
    built through {!make}, so its disjointness is checked again.
    Raises {!Not_disjoint} if the signatures are not compatible. Counter
    [sigs.compose] counts the calls. *)

val compose_list : t list -> t

val hide : t -> Action_set.t -> t
(** Definition 2.6: [(in, out∖S, int ∪ (out∩S))]. Actions of [S] not in the
    output set are ignored. *)

val rename : (Action.t -> Action.t) -> t -> t
(** Apply an action renaming to every component. Raises {!Not_disjoint} if
    the renaming is not injective on this signature. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
