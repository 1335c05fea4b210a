(** Deterministic splittable pseudo-random generator (splitmix64 core).

    All randomized workload generation in tests, examples and benchmarks
    flows through this module with fixed seeds, so every run of the
    reproduction is bit-for-bit repeatable. It is {e not} a cryptographic
    primitive; the toy crypto substrate ({!Cdse_crypto}) documents its own
    assumptions. *)

type t

val make : int -> t
(** Seeded generator. *)

val split : t -> t * t
(** Two independent streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); [bound > 0]. Mutates the
    generator state. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a list -> 'a list
