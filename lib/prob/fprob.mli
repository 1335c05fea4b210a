(** Float-backed distributions — the ablation counterpart of {!Dist}.

    Ablation A1 (DESIGN.md) quantifies the cost of exactness by re-running
    the distance computation with machine floats, and the Monte-Carlo
    checker ([Cdse_secure.Sampled]) compares its empirical estimates with
    it. The exact checkers never use it: float rounding would make
    [ε = 0] claims meaningless. *)

type 'a t

val make : compare:('a -> 'a -> int) -> ('a * float) list -> 'a t
(** Sorted by [compare]; equal elements merged, zero weights dropped. *)

val tv_distance : 'a t -> 'a t -> float
(** The sup-set distance of {!Stat.sup_set_distance}, over floats. *)

val of_exact : 'a Dist.t -> 'a t
