open Cdse_prob
open Cdse_psioa
open Cdse_sched

type setup = {
  structured : Structured.t;
  g : Dummy.renaming;
  env : Psioa.t;
  adv : Psioa.t;
  ai_univ : Action_set.t;
  ao_univ : Action_set.t;
  lhs_sys : Psioa.t;
  rhs_sys : Psioa.t;
  dummy_auto : Psioa.t;
}

let make_setup ~structured ~g ~env ~adv () =
  let ai_univ = Structured.ai_universe structured in
  let ao_univ = Structured.ao_universe structured in
  let aact_univ = Action_set.union ai_univ ao_univ in
  let a = Structured.psioa structured in
  let g_a = Rename.psioa a (Rename.only aact_univ (fun _ act -> g.Dummy.apply act)) in
  let dummy_auto =
    Dummy.make ~name:(Psioa.name a ^ ".dummy") ~ai:ai_univ ~ao:ao_univ ~g
  in
  let h = Emulation.hidden_system structured dummy_auto in
  let lhs_sys = Compose.parallel ~name:"lhs" [ env; g_a; adv ] in
  let rhs_sys = Compose.parallel ~name:"rhs" [ env; h; adv ] in
  { structured; g; env; adv; ai_univ; ao_univ; lhs_sys; rhs_sys; dummy_auto }

let lhs s = s.lhs_sys
let rhs s = s.rhs_sys
let dummy s = s.dummy_auto

(* --------------------------------------------------------------------- *)
(* State plumbing. *)

let lhs_components q =
  match Compose.proj_list q with
  | [ qe; qa; qadv ] -> (qe, qa, qadv)
  | _ -> invalid_arg "Forwarding: bad lhs state"

let rhs_components q =
  match Compose.proj_list q with
  | [ qe; Value.Pair (qa, qd); qadv ] -> (qe, qa, qd, qadv)
  | _ -> invalid_arg "Forwarding: bad rhs state"

let rhs_state qe qa qd qadv = Value.list [ qe; Value.pair qa qd; qadv ]
let lhs_state qe qa qadv = Value.list [ qe; qa; qadv ]

(* Classification of an lhs action: which side of the adversary fence does
   it live on? Based on the unrenamed action's membership in the adversary
   universes — E-actions (environment traffic and internals) pass through
   unchanged. *)
type kind =
  | Env_action
  | F_a of Action.t  (* act = g(a), a ∈ AO_A: A reports to the adversary *)
  | F_adv of Action.t  (* act = g(b), b ∈ AI_A: adversary commands A *)

let classify s act =
  match s.g.Dummy.invert act with
  | Some a when Action_set.mem a s.ao_univ -> F_a a
  | Some b when Action_set.mem b s.ai_univ -> F_adv b
  | _ -> Env_action

(* --------------------------------------------------------------------- *)
(* Forward^e: map an lhs execution to the corresponding rhs execution. *)

let forward_exec s alpha =
  let qe0, qa0, qadv0 = lhs_components (Exec.fstate alpha) in
  let init = Exec.init (rhs_state qe0 qa0 Dummy.idle qadv0) in
  let step (acc, (qe, qa, qadv)) (act, target) =
    let qe', qa', qadv' = lhs_components target in
    let acc =
      match classify s act with
      | Env_action -> Exec.extend acc act (rhs_state qe' qa' Dummy.idle qadv')
      | F_a a ->
          (* A emits a (hidden) into the dummy, which forwards g(a). *)
          let mid = Exec.extend acc a (rhs_state qe qa' (Value.tag "dummy-pending" (Value.Tag (Action.name a, Action.payload a))) qadv) in
          Exec.extend mid act (rhs_state qe' qa' Dummy.idle qadv')
      | F_adv b ->
          (* Adv emits g(b) into the dummy, which forwards b (hidden). *)
          let mid = Exec.extend acc act (rhs_state qe qa (Value.tag "dummy-pending" (Value.Tag (Action.name act, Action.payload act))) qadv') in
          Exec.extend mid b (rhs_state qe' qa' Dummy.idle qadv')
    in
    (acc, (qe', qa', qadv'))
  in
  fst (List.fold_left step (init, (qe0, qa0, qadv0)) (Exec.steps alpha))

(* --------------------------------------------------------------------- *)
(* Resynchronisation: recover, from an rhs fragment, the lhs fragment it
   replays — or the pending forward it still owes. *)

type sync =
  | Synced of Exec.t  (* the corresponding lhs fragment *)
  | Mid_forward of Action.t  (* the forward action the dummy owes *)
  | Desynced

let resync s alpha' =
  let qe0, qa0, qd0, qadv0 = rhs_components (Exec.fstate alpha') in
  if not (Value.equal qd0 Dummy.idle) then Desynced
  else
    (* Walk the rhs fragment. A pending entry [(forward, lhs_act)] records
       that the dummy has just received an action and owes [forward]; once
       the forward fires, the two rhs steps collapse into the single lhs
       step [lhs_act]. The A→dummy half-step carries the unrenamed action
       a ∈ AO_A, which [classify] does not recognise (it inverts g first),
       so it is detected before the general classification. *)
    let rec walk lhs_acc pending steps =
      match steps with
      | [] -> (
          match pending with
          | None -> Synced lhs_acc
          | Some (forward, _) -> Mid_forward forward)
      | (act, target) :: rest -> (
          match rhs_components target with
          | exception Invalid_argument _ -> Desynced
          | qe', qa', qd', qadv' -> (
              match pending with
              | Some (forward, lhs_act) ->
                  if Action.equal act forward && Value.equal qd' Dummy.idle then
                    let lhs_acc = Exec.extend lhs_acc lhs_act (lhs_state qe' qa' qadv') in
                    walk lhs_acc None rest
                  else Desynced
              | None ->
                  if Action_set.mem act s.ao_univ then
                    (* A posted a into the dummy: owed forward is g(a); the
                       lhs action is g(a). *)
                    walk lhs_acc (Some (s.g.Dummy.apply act, s.g.Dummy.apply act)) rest
                  else (
                    match classify s act with
                    | F_adv b -> walk lhs_acc (Some (b, act)) rest
                    | Env_action ->
                        if Value.equal qd' Dummy.idle then
                          let lhs_acc = Exec.extend lhs_acc act (lhs_state qe' qa' qadv') in
                          walk lhs_acc None rest
                        else Desynced
                    | F_a _ -> Desynced)))
    in
    walk (Exec.init (lhs_state qe0 qa0 qadv0)) None (Exec.steps alpha')

(* --------------------------------------------------------------------- *)
(* Forward^s. *)

let forward_sched s sigma =
  let choose alpha' =
    match resync s alpha' with
    | Desynced -> Dist.empty ~compare:Action.compare
    | Mid_forward forward -> Dist.dirac ~compare:Action.compare forward
    | Synced alpha ->
        let choice = sigma.Scheduler.choose alpha in
        (* Map each lhs action to the first rhs action of its replay:
           adversary reports g(a) start with the unrenamed a; everything
           else keeps its name. *)
        Dist.map ~compare:Action.compare
          (fun act ->
            match classify s act with
            | F_a a -> a
            | F_adv _ | Env_action -> act)
          choice
  in
  Scheduler.make ~name:("forward " ^ sigma.Scheduler.name) choose

(* Definition 4.28's brave-pair bullets, checked on the support of the
   lhs measure: (i) hiding the adversary actions does not change the
   insight's observation (the arrival space depends only on E), and
   (ii) Forward^e preserves observations pointwise. Bullet (iv) — that
   Forward^s lands in the schema — holds by construction for the schemas
   used here and is exercised by check_lemma_d1's measure computation. *)
let check_brave s ~insight_of ~sched ~q1 ~depth =
  let sigma = Scheduler.bounded q1 sched in
  let d = Measure.exec_dist s.lhs_sys sigma ~depth in
  let aact_univ = Action_set.union s.ai_univ s.ao_univ in
  let g_univ = Action_set.map_actions s.g.Dummy.apply aact_univ in
  let hidden_lhs = Hide.psioa_const s.lhs_sys g_univ in
  let f_lhs = insight_of s.lhs_sys and f_hidden = insight_of hidden_lhs in
  let f_rhs = insight_of s.rhs_sys in
  List.for_all
    (fun alpha ->
      let obs = f_lhs.Insight.observe alpha in
      Value.equal obs (f_hidden.Insight.observe alpha)
      && Value.equal obs (f_rhs.Insight.observe (forward_exec s alpha)))
    (Dist.support d)

type d1_report = { distance : Rat.t; exact : bool; lhs_steps : int; rhs_steps : int }

let check_lemma_d1 s ~insight_of ~sched ~q1 ~depth =
  let sigma = Scheduler.bounded q1 sched in
  let sigma' = Scheduler.bounded (2 * q1) (forward_sched s sigma) in
  let da = Insight.apply (insight_of s.lhs_sys) s.lhs_sys sigma ~depth in
  let db = Insight.apply (insight_of s.rhs_sys) s.rhs_sys sigma' ~depth:(2 * depth) in
  let distance = Stat.sup_set_distance da db in
  { distance; exact = Rat.is_zero distance; lhs_steps = q1; rhs_steps = 2 * q1 }


(* Family form of Lemma D.1 / 4.29: one setup per index, all exact. *)
let check_lemma_d1_family ~window ~setup_of ~insight_of ~sched_of ~q1 ~depth =
  List.for_all
    (fun k ->
      let s = setup_of k in
      (check_lemma_d1 s ~insight_of ~sched:(sched_of k s) ~q1:(q1 k) ~depth:(depth k)).exact)
    window
