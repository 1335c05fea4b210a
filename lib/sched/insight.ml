open Cdse_prob
open Cdse_psioa

type t = { name : string; observe : Exec.t -> Value.t }

let make ~name observe = { name; observe }

let actions_value acts = Value.list (List.map (fun a -> Value.Tag (Action.name a, Action.payload a)) acts)

let trace composite =
  make ~name:"trace" (fun e ->
      actions_value (Exec.trace ~sig_of:(Psioa.signature composite) e))

let accept ?(action_name = "acc") composite =
  make ~name:(Printf.sprintf "accept(%s)" action_name) (fun e ->
      let tr = Exec.trace ~sig_of:(Psioa.signature composite) e in
      Value.bool (List.exists (fun a -> String.equal (Action.name a) action_name) tr))

(* Environment-local view of a pair execution: fold the composite steps,
   keeping only those in which the environment participates, recording its
   local state trajectory and the actions it saw. *)
let print_left env _composite =
  make ~name:"print" (fun e ->
      let env_state q = fst (Compose.proj_pair q) in
      let rec go acc q = function
        | [] -> List.rev acc
        | (act, q') :: rest ->
            let qe = env_state q and qe' = env_state q' in
            let acc =
              if Psioa.is_enabled env qe act then
                Value.pair (Value.Tag (Action.name act, Action.payload act)) qe' :: acc
              else acc
            in
            go acc q' rest
      in
      Value.pair (env_state (Exec.fstate e)) (Value.list (go [] (Exec.fstate e) (Exec.steps e))))

(* Environment-local view of an n-ary composite: like print_left but the
   environment sits at a given index of a Compose.parallel state. *)
let print_nth env idx _composite =
  make ~name:(Printf.sprintf "print[%d]" idx) (fun e ->
      let env_state q = List.nth (Compose.proj_list q) idx in
      let rec go acc q = function
        | [] -> List.rev acc
        | (act, q') :: rest ->
            let qe = env_state q and qe' = env_state q' in
            let acc =
              if Psioa.is_enabled env qe act then
                Value.pair (Value.Tag (Action.name act, Action.payload act)) qe' :: acc
              else acc
            in
            go acc q' rest
      in
      Value.pair (env_state (Exec.fstate e)) (Value.list (go [] (Exec.fstate e) (Exec.steps e))))

let apply ?memo:_ ?(domains = 1) ?compress:_ insight composite sched ~depth =
  if domains <> 1 then
    invalid_arg (Printf.sprintf "Insight.apply: ~domains:%d, but only 1 is accepted" domains);
  Dist.map ~compare:Value.compare insight.observe (Measure.exec_dist composite sched ~depth)

let check_stability ~make_insight ~env ~ctx ~a1 ~a2 ~sched_of ~depth =
  (* Distance when E observes B||Ai, vs when E||B observes Ai. The two
     composites differ only in association; we build both groupings
     explicitly. *)
  let grouped_1 = Compose.pair env (Compose.pair ctx a1) in
  let grouped_2 = Compose.pair env (Compose.pair ctx a2) in
  let flat_1 = Compose.pair (Compose.pair env ctx) a1 in
  let flat_2 = Compose.pair (Compose.pair env ctx) a2 in
  let dist_with composite1 composite2 =
    let f1 = make_insight composite1 and f2 = make_insight composite2 in
    let d1 = apply f1 composite1 (sched_of composite1) ~depth in
    let d2 = apply f2 composite2 (sched_of composite2) ~depth in
    Stat.sup_set_distance d1 d2
  in
  let d_env = dist_with grouped_1 grouped_2 in
  let d_envctx = dist_with flat_1 flat_2 in
  Rat.compare d_env d_envctx <= 0
