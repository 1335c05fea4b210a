open Cdse_psioa

(* Entries sorted by identifier; at most one state per identifier. *)
type t = (string * Value.t) list

exception Duplicate_automaton of string

let make pairs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) pairs in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then raise (Duplicate_automaton a) else check rest
    | _ -> ()
  in
  check sorted;
  sorted

let auts c = List.map fst c
let entries c = c
let state_of c id = List.assoc_opt id c
let mem c id = List.mem_assoc id c
let cardinal = List.length

let add id q c =
  if mem c id then raise (Duplicate_automaton id) else make ((id, q) :: c)

let member_sigs reg c =
  List.map (fun (id, q) -> Psioa.signature (Registry.find reg id) q) c

(* Definition 2.11: outputs and internals are unions; inputs are the union
   of inputs minus the configuration's own outputs. *)
let signature_of_sigs sigs =
  let out = List.fold_left (fun acc s -> Action_set.union acc (Sigs.output s)) Action_set.empty sigs in
  let int_ = List.fold_left (fun acc s -> Action_set.union acc (Sigs.internal s)) Action_set.empty sigs in
  let in_all = List.fold_left (fun acc s -> Action_set.union acc (Sigs.input s)) Action_set.empty sigs in
  Sigs.make ~input:(Action_set.diff in_all out) ~output:out ~internal:int_

let signature reg c = signature_of_sigs (member_sigs reg c)

let compatible reg c = Sigs.compatible_list (member_sigs reg c)

let reduce reg c =
  List.filter (fun (id, q) -> not (Sigs.is_empty (Psioa.signature (Registry.find reg id) q))) c

let is_reduced reg c = List.length (reduce reg c) = List.length c

let start_of reg ids = make (List.map (fun id -> (id, Psioa.start (Registry.find reg id))) ids)

let union a b =
  List.iter (fun (id, _) -> if mem a id then raise (Duplicate_automaton id)) b;
  make (a @ b)

let compare a b =
  Cdse_util.Order.list (Cdse_util.Order.pair String.compare Value.compare) a b

let equal a b = compare a b = 0

let to_value c = Value.tag "config" (Value.list (List.map (fun (id, q) -> Value.pair (Value.str id) q) c))

let of_value = function
  | Value.Tag ("config", Value.List l) ->
      make
        (List.map
           (function
             | Value.Pair (Value.Str id, q) -> (id, q)
             | v -> invalid_arg ("Config.of_value: bad entry " ^ Value.to_string v))
           l)
  | v -> invalid_arg ("Config.of_value: not a configuration " ^ Value.to_string v)

let pp fmt c =
  Format.fprintf fmt "⟨@[<hov>%a@]⟩"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ")
       (fun fmt (id, q) -> Format.fprintf fmt "%s@%a" id Value.pp q))
    c
