(** Finite sets of actions.

    The paper allows countable action sets per state; we restrict to finite
    explicit sets (DESIGN.md substitution table): depth-bounded executions
    only ever inspect finitely many actions. *)

include Set.Make (Action)

let disjoint3 a b c = disjoint a b && disjoint a c && disjoint b c

let map_actions f s = of_list (List.map f (elements s))

let pp fmt s =
  Format.fprintf fmt "{@[<hov>%a@]}"
    (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ",@ ") Action.pp)
    (elements s)

let to_string s = Format.asprintf "%a" pp s
