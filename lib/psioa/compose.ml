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

(* An automaton whose transition is given the automaton itself. [self]
   is set before the automaton is returned, so every reader finds it set;
   a [Lazy] would raise when two threads force it at once. *)
let make_self ~name ~start ~signature ~transition =
  let self = ref None in
  let a =
    Psioa.make ~name ~start ~signature ~transition:(fun q act ->
        match !self with Some a -> transition a q act | None -> assert false)
  in
  self := Some a;
  a

let is_dirac d = Dist.size d = 1 && Dist.is_proper d

(* Joint transition (Definition 2.5) of the composite [self] at [q], with
   component states [qs]; [build] makes a composite state of component
   states. Only actions of the composite's own signature are enabled. It
   is read through [Psioa.signature], so after the scheduler's read at
   the same state it comes from the last-evaluation entry and nothing is
   composed again; elsewhere it is composed and may raise [Incompatible].
   Each component's own signature decides whether it moves by its
   measure or stays via Dirac. When every move is a Dirac of mass 1, so
   is the joint measure. *)
let joint_transition self autos ~build q qs act =
  if not (Sigs.mem act (Psioa.signature self q)) then None
  else
    let moves =
      List.map2
        (fun a q -> if Sigs.mem act (Psioa.signature a q) then Psioa.step a q act else Vdist.dirac q)
        autos qs
    in
    if List.for_all is_dirac moves then Some (Vdist.dirac (build (List.concat_map Dist.support moves)))
    else
      Some
        (Dist.map ~compare:Value.compare build (Dist.product_list ~compare:Value.compare moves))

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
  let transition self q act = joint_transition self autos ~build:Value.list q (proj q) act in
  make_self ~name ~start:(Value.list (List.map Psioa.start autos)) ~signature ~transition

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
  let autos = [ a; b ] in
  let build = function [ qa'; qb' ] -> Value.pair qa' qb' | _ -> assert false in
  let transition self q act =
    let qa, qb = proj q in
    joint_transition self autos ~build q [ qa; qb ] act
  in
  make_self ~name ~start:(Value.pair (Psioa.start a) (Psioa.start b)) ~signature ~transition

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
