(** Parallel composition of PSIOA (Definitions 2.5 and 2.18).

    The composite of [A₁, …, Aₙ] has states [(q₁, …, qₙ)] (represented as
    [Value.List]), the composed signature of Definition 2.4 at each state,
    and joint transitions: on action [a], every component with [a] in its
    signature moves by its own measure and the others stay put, the results
    combined by the product measure [η₁ ⊗ … ⊗ ηₙ] (Definition 2.5).

    A transition of the composite tests membership against the composed
    signature read through {!Psioa.signature}, so it comes from the
    composite's last-evaluation entry: a scheduler that has just read the
    signature at the same (physically equal) state leaves it there, and
    the step composes nothing. At any other state the read composes it
    again, and raises {!Incompatible} as the composite's signature does.
    Each component's participation comes from its own signature, read
    once at its source state. A component that is itself a composite
    does the same one level down, so a leaf under [d] levels of nesting
    is read [d] times per step. When every component's move is a Dirac
    of mass 1, the joint measure is that Dirac, built without a product. *)

exception Incompatible of string
(** Raised when a reachable state's component signatures violate
    Definition 2.3. A set of automata is {e partially compatible} when no
    reachable state raises this. *)

val pair : ?name:string -> Psioa.t -> Psioa.t -> Psioa.t
(** [A₁ ‖ A₂] with states [Value.Pair (q₁, q₂)] — the binary form used by
    environments ([E ‖ A], Definition 3.3). *)

val parallel : ?name:string -> Psioa.t list -> Psioa.t
(** n-ary composition with states [Value.List [q₁; …; qₙ]]. The list must be
    non-empty. *)

val proj_pair : Value.t -> Value.t * Value.t
(** Component states of a {!pair} composite state ([q ↾ Aᵢ]). *)

val proj_list : Value.t -> Value.t list

val partially_compatible : Psioa.t list -> bool
(** Definition 2.18's side condition at every reachable state of
    {!parallel}, found by one {!Psioa.reachable_trunc} sweep. Raises
    {!Psioa.Sweep_truncated} when the composite reaches more than
    {!Psioa.default_max_states} states and every explored state passed:
    the states beyond the cap were never checked. *)

val proj_exec : Psioa.t list -> int -> Exec.t -> Exec.t
(** Project an execution of [parallel l] onto component [i]: keep the steps
    whose action is in that component's signature at its current local
    state. *)
