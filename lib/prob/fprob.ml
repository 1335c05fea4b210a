type 'a t = { cmp : 'a -> 'a -> int; items : ('a * float) list }

let normalize cmp pairs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> cmp a b) pairs in
  let rec merge = function
    | [] -> []
    | [ (x, p) ] -> if p = 0.0 then [] else [ (x, p) ]
    | (x, p) :: ((y, q) :: rest as tail) ->
        if cmp x y = 0 then merge ((x, p +. q) :: rest)
        else if p = 0.0 then merge tail
        else (x, p) :: merge tail
  in
  merge sorted

let make ~compare pairs = { cmp = compare; items = normalize compare pairs }

let tv_distance a b =
  let cmp = a.cmp in
  let rec go pos neg la lb =
    match (la, lb) with
    | [], [] -> (pos, neg)
    | (_, p) :: ra, [] -> go (pos +. p) neg ra []
    | [], (_, q) :: rb -> go pos (neg +. q) [] rb
    | (x, p) :: ra, (y, q) :: rb ->
        let c = cmp x y in
        if c < 0 then go (pos +. p) neg ra lb
        else if c > 0 then go pos (neg +. q) la rb
        else if p >= q then go (pos +. p -. q) neg ra rb
        else go pos (neg +. q -. p) ra rb
  in
  let pos, neg = go 0.0 0.0 a.items b.items in
  Float.max pos neg

let of_exact d =
  { cmp = Dist.compare_elt d; items = List.map (fun (x, p) -> (x, Rat.to_float p)) (Dist.items d) }
