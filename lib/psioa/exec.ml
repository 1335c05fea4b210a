type t = { first : Value.t; rev_steps : (Action.t * Value.t) list; len : int }

let init first = { first; rev_steps = []; len = 0 }

let extend e act q' = { e with rev_steps = (act, q') :: e.rev_steps; len = e.len + 1 }

let fstate e = e.first

let lstate e = match e.rev_steps with [] -> e.first | (_, q) :: _ -> q

let length e = e.len
let steps e = List.rev e.rev_steps
let actions e = List.rev_map fst e.rev_steps

let states e = e.first :: List.map snd (steps e)

let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l)

(* The least index of a state satisfying [p] among [first] and the steps
   in [rest], the last of which is step [j]; [hit] if there is none. *)
let rec scan p first j hit = function
  | [] -> if p first then 0 else hit
  | (_, q) :: rest -> scan p first (j - 1) (if p q then j else hit) rest

(* [scan] beside the steps [rp] of an execution of length [m] whose
   answer is [prev_hit], aligned by length, until the two lists meet
   physically: at and below that point both executions hold the same
   states, so [prev_hit] answers for them if it lies there. *)
let rec walk p ~m ~prev_hit j hit re rp =
  match re with
  | (_, q) :: re' when re != rp ->
      walk p ~m ~prev_hit (j - 1) (if p q then j else hit) re' (if j > m then rp else List.tl rp)
  | _ -> if prev_hit <= j then prev_hit else hit

let first_hit ?prev p e =
  match prev with
  | Some (prev, prev_hit) when prev.first == e.first ->
      walk p ~m:prev.len ~prev_hit e.len (e.len + 1) e.rev_steps
        (drop (prev.len - e.len) prev.rev_steps)
  | _ -> scan p e.first e.len (e.len + 1) e.rev_steps

let of_steps first steps =
  { first; rev_steps = List.rev steps; len = List.length steps }

let concat a b =
  if not (Value.equal (lstate a) (fstate b)) then
    invalid_arg "Exec.concat: fragments do not meet";
  { first = a.first; rev_steps = b.rev_steps @ a.rev_steps; len = a.len + b.len }

let step_compare = Cdse_util.Order.pair Action.compare Value.compare

(* Forward-lexicographic order on the step sequences (same order as
   [Order.list step_compare] on [steps a] / [steps b]) computed directly on
   the reversed lists: no [List.rev] allocation per comparison, and
   physically shared tails — sibling executions of one cone share their
   prefix — compare in O(1). *)
let compare a b =
  let c = Value.compare a.first b.first in
  if c <> 0 then c
  else begin
    (* Align on the common prefix: the deepest [min len] entries. *)
    let ra = if a.len > b.len then drop (a.len - b.len) a.rev_steps else a.rev_steps in
    let rb = if b.len > a.len then drop (b.len - a.len) b.rev_steps else b.rev_steps in
    let rec go ra rb =
      if ra == rb then 0
      else
        match (ra, rb) with
        | [], [] -> 0
        | x :: ra', y :: rb' ->
            let c = go ra' rb' in
            if c <> 0 then c else step_compare x y
        | _ -> assert false (* aligned above *)
    in
    let c = go ra rb in
    if c <> 0 then c else Int.compare a.len b.len
  end

let equal a b = compare a b = 0
(* Every step, folded in one at a time: [Hashtbl.hash] over the step list
   stops after 10 meaningful leaves, so executions that differ only in an
   early step would share a hash. *)
let hash e =
  List.fold_left
    (fun h (a, q) -> Hashtbl.seeded_hash (Hashtbl.seeded_hash h (Action.hash a)) (Value.hash q))
    (Value.hash e.first) e.rev_steps

let is_prefix a ~of_ =
  a.len <= of_.len
  && Value.equal a.first of_.first
  &&
  let rec take n l = if n = 0 then [] else match l with [] -> [] | x :: r -> x :: take (n - 1) r in
  List.for_all2
    (fun (x, q) (y, q') -> Action.equal x y && Value.equal q q')
    (steps a)
    (take a.len (steps of_))

(* [Sigs.classify] places each action, so no [Sigs.ext] union is built
   per step. *)
let trace ~sig_of e =
  let rec go q = function
    | [] -> []
    | (act, q') :: rest -> (
        match Sigs.classify act (sig_of q) with
        | `Input | `Output -> act :: go q' rest
        | `Internal | `Absent -> go q' rest)
  in
  go e.first (steps e)

let pp fmt e =
  Format.fprintf fmt "@[<hov>%a" Value.pp e.first;
  List.iter (fun (a, q) -> Format.fprintf fmt "@ —%a→ %a" Action.pp a Value.pp q) (steps e);
  Format.fprintf fmt "@]"

let to_string e = Format.asprintf "%a" pp e
