(** Strong probabilistic bisimulation for finite-state PSIOA.

    A sound {e proof method} for the implementation relations of the
    paper: if two automata are strongly bisimilar (with internal actions
    abstracted to a common τ label), every observation distribution
    obtained through matching schedulers coincides, so bisimilarity gives
    [ε = 0] implementations without enumerating schedulers. The converse
    fails — bisimulation is finer than observational equivalence — which
    makes this a conservative, always-sound checker (Segala's probabilistic
    bisimulation for probabilistic automata [14]).

    The algorithm is classic partition refinement on the disjoint union of
    the two (explored) state spaces: blocks start from signature
    fingerprints and are split until, for every abstract label, related
    states present the same set of block-probability vectors. *)

val bisimilar : ?max_states:int -> Psioa.t -> Psioa.t -> bool
(** Are the two automata's start states strongly bisimilar on their
    explored state spaces (default cap 2000 states each)? External
    actions are matched by name and payload; internal actions collapse to
    one τ label. Raises [Invalid_argument] if exploration truncates (the
    result would be unsound). *)

val classes : Psioa.t -> Psioa.t -> int * int
(** [(number of blocks, number of states considered)] of the final
    partition — exposed for diagnostics and benchmarks. *)
