module Obs = Cdse_obs.Obs

type t = { input : Action_set.t; output : Action_set.t; internal : Action_set.t }

exception Not_disjoint of string

let make ~input ~output ~internal =
  if not (Action_set.disjoint3 input output internal) then
    raise
      (Not_disjoint
         (Format.asprintf "Sigs.make: overlapping components in=%a out=%a int=%a" Action_set.pp
            input Action_set.pp output Action_set.pp internal));
  { input; output; internal }

let of_lists ?(i = []) ?(o = []) ?(h = []) () =
  make ~input:(Action_set.of_list i) ~output:(Action_set.of_list o) ~internal:(Action_set.of_list h)

let empty = { input = Action_set.empty; output = Action_set.empty; internal = Action_set.empty }

let is_empty s =
  Action_set.is_empty s.input && Action_set.is_empty s.output && Action_set.is_empty s.internal

let input s = s.input
let output s = s.output
let internal s = s.internal
let all s = Action_set.union s.input (Action_set.union s.output s.internal)
let ext s = Action_set.union s.input s.output
let local s = Action_set.union s.output s.internal

let filter_ext p s =
  Action_set.fold (fun a acc -> if p a then Action_set.add a acc else acc) s.output
    (Action_set.filter p s.input)

let classify a s =
  if Action_set.mem a s.input then `Input
  else if Action_set.mem a s.output then `Output
  else if Action_set.mem a s.internal then `Internal
  else `Absent

(* Three lookups instead of building the union set [all s]. *)
let mem a s = classify a s <> `Absent

(* Definition 2.3, one pair of components at a time, so no union is
   built: [all s1 ∩ int s2 = ∅] is three tests, [all s2 ∩ int s1 = ∅]
   two more (the internal pair is shared), and the outputs one. *)
let compatible s1 s2 =
  Action_set.disjoint s1.output s2.output
  && Action_set.disjoint s1.internal s2.internal
  && Action_set.disjoint s1.input s2.internal
  && Action_set.disjoint s1.output s2.internal
  && Action_set.disjoint s2.input s1.internal
  && Action_set.disjoint s2.output s1.internal

let rec compatible_list = function
  | [] | [ _ ] -> true
  | s :: rest -> List.for_all (compatible s) rest && compatible_list rest

let c_compose = Obs.counter "sigs.compose"

(* Definition 2.4. *)
let compose s1 s2 =
  Obs.incr c_compose;
  if not (compatible s1 s2) then
    raise (Not_disjoint "Sigs.compose: incompatible signatures");
  let output = Action_set.union s1.output s2.output in
  let input = Action_set.diff (Action_set.union s1.input s2.input) output in
  let internal = Action_set.union s1.internal s2.internal in
  make ~input ~output ~internal

let compose_list = function
  | [] -> empty
  | s :: rest -> List.fold_left compose s rest

(* Definition 2.6. *)
let hide s hidden =
  let hidden = Action_set.inter s.output hidden in
  { input = s.input;
    output = Action_set.diff s.output hidden;
    internal = Action_set.union s.internal hidden }

let rename f s =
  let check_injective set =
    let mapped = Action_set.map_actions f set in
    if Action_set.cardinal mapped <> Action_set.cardinal set then
      raise (Not_disjoint "Sigs.rename: renaming not injective on signature");
    mapped
  in
  make ~input:(check_injective s.input) ~output:(check_injective s.output)
    ~internal:(check_injective s.internal)

let equal s1 s2 =
  Action_set.equal s1.input s2.input
  && Action_set.equal s1.output s2.output
  && Action_set.equal s1.internal s2.internal

let pp fmt s =
  Format.fprintf fmt "@[<hov>in=%a@ out=%a@ int=%a@]" Action_set.pp s.input Action_set.pp s.output
    Action_set.pp s.internal
