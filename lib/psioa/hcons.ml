open Cdse_prob
module Obs = Cdse_obs.Obs

let c_hit = Obs.counter "hcons.hits"
let c_miss = Obs.counter "hcons.misses"

(* The intern table maps a value (structural hash / equality, with the [==]
   fast path of [Value.compare] inside) to its canonical representative.
   Only canonical values are retained as keys, so the table holds exactly
   one node per distinct value ever interned. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = { tbl : Value.t Vtbl.t }

let create ?(size = 256) () = { tbl = Vtbl.create size }

(* Rebuild [v] with canonical children, preserving physical identity when
   every child is already canonical — so re-interning a canonical value
   allocates nothing and [make] is idempotent by table hit. *)
let rec make t v =
  match Vtbl.find_opt t.tbl v with
  | Some c ->
      Obs.incr c_hit;
      c
  | None ->
      Obs.incr c_miss;
      let c =
        match v with
        | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _ -> v
        | Value.Pair (a, b) ->
            let a' = make t a and b' = make t b in
            if a' == a && b' == b then v else Value.pair a' b'
        | Value.List l ->
            let l' = List.map (make t) l in
            if List.for_all2 ( == ) l l' then v else Value.list l'
        | Value.Tag (name, x) ->
            let x' = make t x in
            if x' == x then v else Value.tag name x'
      in
      Vtbl.replace t.tbl c c;
      c

let auto t a =
  let intern_dist d = Dist.map ~compare:Value.compare (make t) d in
  Psioa.make ~name:(Psioa.name a)
    ~start:(make t (Psioa.start a))
    ~signature:(Psioa.signature a)
    ~transition:(fun q act -> Option.map intern_dist (Psioa.transition a q act))
