open Cdse_prob

exception Incompatible of string

let compose_sigs ~name states sigs =
  match Sigs.compose_list sigs with
  | s -> s
  | exception Sigs.Not_disjoint msg ->
      raise
        (Incompatible
           (Format.asprintf "%s at state %a: %s" name
              (Format.pp_print_list Value.pp)
              states msg))

(* Joint transition (Definition 2.5) from one evaluation of each component
   signature at [qs]. The composed signature still raises [Incompatible]
   as [signature] does and decides membership (only actions of the
   composite signature are enabled: absent actions yield None); each
   component's own signature decides whether it moves by its measure or
   stays via Dirac. *)
let joint_transition ~name autos qs act =
  let sigs = List.map2 Psioa.signature autos qs in
  if not (Sigs.mem act (compose_sigs ~name qs sigs)) then None
  else
    let rec moves autos qs sigs =
      match (autos, qs, sigs) with
      | a :: autos, q :: qs, s :: sigs ->
          let d = if Sigs.mem act s then Psioa.step a q act else Vdist.dirac q in
          d :: moves autos qs sigs
      | _ -> []
    in
    Some (Dist.product_list ~compare:Value.compare (moves autos qs sigs))

let parallel ?name autos =
  if autos = [] then invalid_arg "Compose.parallel: empty list";
  let name =
    match name with Some n -> n | None -> String.concat "||" (List.map Psioa.name autos)
  in
  let proj = function
    | Value.List qs when List.length qs = List.length autos -> qs
    | q -> invalid_arg (Printf.sprintf "%s: bad composite state %s" name (Value.to_string q))
  in
  let signature q =
    let qs = proj q in
    compose_sigs ~name qs (List.map2 Psioa.signature autos qs)
  in
  let transition q act =
    Option.map
      (Dist.map ~compare:Value.compare Value.list)
      (joint_transition ~name autos (proj q) act)
  in
  Psioa.make ~name ~start:(Value.list (List.map Psioa.start autos)) ~signature ~transition

let pair ?name a b =
  let name = match name with Some n -> n | None -> Psioa.name a ^ "||" ^ Psioa.name b in
  let proj = function
    | Value.Pair (qa, qb) -> (qa, qb)
    | q -> invalid_arg (Printf.sprintf "%s: bad pair state %s" name (Value.to_string q))
  in
  let signature q =
    let qa, qb = proj q in
    compose_sigs ~name [ qa; qb ] [ Psioa.signature a qa; Psioa.signature b qb ]
  in
  let transition q act =
    let qa, qb = proj q in
    Option.map
      (Dist.map ~compare:Value.compare (function
        | [ qa'; qb' ] -> Value.pair qa' qb'
        | _ -> assert false))
      (joint_transition ~name [ a; b ] [ qa; qb ] act)
  in
  Psioa.make ~name ~start:(Value.pair (Psioa.start a) (Psioa.start b)) ~signature ~transition

let proj_pair = function
  | Value.Pair (a, b) -> (a, b)
  | q -> invalid_arg (Printf.sprintf "Compose.proj_pair: %s" (Value.to_string q))

let proj_list = function
  | Value.List l -> l
  | q -> invalid_arg (Printf.sprintf "Compose.proj_list: %s" (Value.to_string q))

let partially_compatible autos =
  let a = parallel autos in
  match Psioa.reachable_trunc a with
  | _, false -> true
  | _, true ->
      raise
        (Psioa.Sweep_truncated
           { automaton = Psioa.name a; max_states = Psioa.default_max_states })
  | exception Incompatible _ -> false

let proj_exec autos i exec =
  let nth_auto = List.nth autos i in
  let local q = List.nth (proj_list q) i in
  let rec go acc q = function
    | [] -> acc
    | (act, q') :: rest ->
        let ql = local q and ql' = local q' in
        let acc =
          if Psioa.is_enabled nth_auto ql act then Exec.extend acc act ql' else acc
        in
        go acc q' rest
  in
  go (Exec.init (local (Exec.fstate exec))) (Exec.fstate exec) (Exec.steps exec)
