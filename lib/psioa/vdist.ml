(** Distributions over {!Value.t} — the transition-target measures
    [Disc(Q_A)] of Definition 2.1, specialised to the universal value state
    space. Thin convenience wrappers around {!Cdse_prob.Dist}. *)

open Cdse_prob

type t = Value.t Dist.t

let dirac v = Dist.dirac ~compare:Value.compare v
let uniform vs = Dist.uniform ~compare:Value.compare vs
let make pairs = Dist.make ~compare:Value.compare pairs

let coin ?(p = Rat.half) hd tl =
  make [ (hd, p); (tl, Rat.sub Rat.one p) ]

let map f d = Dist.map ~compare:Value.compare f d
let pp = Dist.pp Value.pp
