(** The [aut : Autids → Auts] mapping of Section 2.2.

    Configuration automata (Definition 2.9) refer to sub-automata by
    identifier; a registry resolves identifiers to concrete PSIOA. *)

module Smap = Map.Make (String)

type t = Psioa.t Smap.t

let empty : t = Smap.empty

let add auto reg = Smap.add (Psioa.name auto) auto reg

let of_list autos = List.fold_left (fun reg a -> add a reg) empty autos

exception Unknown_automaton of string

let find reg id =
  match Smap.find_opt id reg with
  | Some a -> a
  | None -> raise (Unknown_automaton id)

let mem reg id = Smap.mem id reg
let union a b = Smap.union (fun _ x _ -> Some x) a b
