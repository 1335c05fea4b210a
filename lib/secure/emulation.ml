open Cdse_psioa

let hidden_system structured adv =
  Hide.psioa (Compose.pair (Structured.psioa structured) adv) (fun q ->
      Structured.aact structured (fst (Compose.proj_pair q)))

exception
  Check_failed of {
    real : string;
    ideal : string;
    worst : Cdse_prob.Rat.t;
    witness : string;
  }

(* Name both sides and surface the first failing (environment, scheduler)
   detail line — it carries the matched-scheduler witness and, from
   [Impl.run], the distinguishing observation with the largest mass gap. *)
let () =
  Printexc.register_printer (function
    | Check_failed { real; ideal; worst; witness } ->
        Some
          (Printf.sprintf
             "Emulation.Check_failed: %S does not securely emulate %S (worst distance %s; %s)"
             real ideal (Cdse_prob.Rat.to_string worst) witness)
    | _ -> None)

let check ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~adversaries ~sim_for ~real ~ideal =
  let verdicts =
    List.map
      (fun adv ->
        Cdse_obs.Trace.span "emulation.adversary"
          ~args:(fun () -> [ ("adv", Psioa.name adv) ])
        @@ fun () ->
        let sim = sim_for adv in
        let v =
          Impl.approx_le ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth
            ~a:(hidden_system real adv) ~b:(hidden_system ideal sim)
        in
        { v with
          Impl.detail =
            List.map (fun (s, d) -> (Printf.sprintf "adv=%s %s" (Psioa.name adv) s, d)) v.Impl.detail })
      adversaries
  in
  Impl.merge_verdicts verdicts

let check_exn ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~adversaries ~sim_for ~real ~ideal =
  let v = check ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~adversaries ~sim_for ~real ~ideal in
  if v.Impl.holds then v
  else
    let witness =
      match
        List.find_opt (fun (_, d) -> Cdse_prob.Rat.compare d eps > 0) v.Impl.detail
      with
      | Some (s, d) -> Printf.sprintf "%s -> %s" s (Cdse_prob.Rat.to_string d)
      | None -> "<no failing detail>"
    in
    raise
      (Check_failed
         { real = Structured.name real;
           ideal = Structured.name ideal;
           worst = v.Impl.worst;
           witness })

type component = {
  real : Structured.t;
  ideal : Structured.t;
  g : Dummy.renaming;
  dsim : Psioa.t;
}

let dummy_for c =
  Dummy.make
    ~name:(Structured.name c.real ^ ".dummy")
    ~ai:(Structured.ai_universe c.real)
    ~ao:(Structured.ao_universe c.real)
    ~g:c.g

let composite_simulator ~components ~adv =
  (* g = g¹ ∪ … ∪ gᵇ on the disjoint adversary alphabets of the
     components. *)
  let aact_univs = List.map (fun c -> Structured.aact_universe c.real) components in
  let g_apply act =
    let rec go cs univs =
      match (cs, univs) with
      | [], [] -> act
      | c :: cs', u :: us' -> if Action_set.mem act u then c.g.Dummy.apply act else go cs' us'
      | _ -> act
    in
    go components aact_univs
  in
  let full_univ = List.fold_left Action_set.union Action_set.empty aact_univs in
  let g_adv = Rename.psioa adv (Rename.only full_univ (fun _ act -> g_apply act)) in
  let renamed_univ = Action_set.map_actions g_apply full_univ in
  let dsims = List.map (fun c -> c.dsim) components in
  Hide.psioa_const (Compose.parallel (dsims @ [ g_adv ])) renamed_univ
