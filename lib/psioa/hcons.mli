(** Hash-consing of {!Value.t}: canonical, physically-unique representatives.

    [make t v] returns the canonical value structurally equal to [v] in the
    intern table [t], building it (with maximally shared, already-canonical
    sub-terms) on first sight. Two interned values are equal iff they are
    physically equal, so — combined with the [==] fast path in
    {!Value.compare} — equality checks, {!Exec.compare} on sibling cone
    executions, and the {!Psioa.memoize} tables all short-circuit in O(1)
    on interned states. The table maps each value to its canonical
    representative; a miss costs one {!Value.hash} for the lookup and
    one for the insertion.

    Physical uniqueness holds per table — structural equality across
    tables still works, only without the O(1) fast path.

    {!Cdse_obs.Obs} counters: [hcons.hits] (value already interned) and
    [hcons.misses] (new canonical node built), counted per {!make} call
    including the recursive calls on sub-terms. *)

type t
(** An intern table. *)

val create : ?size:int -> unit -> t
(** A fresh, empty table ([size] is the initial bucket-count hint). *)

val make : t -> Value.t -> Value.t
(** The canonical representative of [v] in [t]. Idempotent:
    [make t (make t v) == make t v], and [make t v == make t w] iff
    [Value.compare v w = 0]. *)

val auto : t -> Psioa.t -> Psioa.t
(** Wrap an automaton so every state it emits is interned in [t]: the
    start state and all transition-target supports are canonical. The
    result is observationally identical ({!Value.equal}-equal states,
    identical distributions); only physical sharing changes. Compose with
    {!Psioa.memoize} {e on top} so the interning cost of a transition is
    paid once per [(state, action)]. *)
