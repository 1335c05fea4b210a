(* Tests for the scheduler layer: schedulers (Def 3.1), schemas (Def 3.2),
   the execution measure ε_σ, insight functions (Defs 3.4-3.5), f-dist and
   balanced schedulers (Def 3.6), stability by composition (Def 3.7). *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit

let act = Fixtures.act

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

(* -------------------------------------------------------------- Scheduler *)

let test_uniform_choice () =
  let sys = Compose.pair (Fixtures.counter ~bound:1 "a") (Fixtures.counter ~bound:1 "b") in
  let s = Scheduler.uniform sys in
  let d = s.Scheduler.choose (Exec.init (Psioa.start sys)) in
  Alcotest.(check int) "two increments" 2 (Dist.size d);
  Alcotest.check rat "each 1/2" Rat.half (Dist.prob d (act "a.inc"))

let test_uniform_skips_free_inputs () =
  (* A lone channel only has free inputs: the standard schedulers leave
     those to the environment and halt. *)
  let ch = Fixtures.channel "ch" in
  let s = Scheduler.uniform ch in
  Alcotest.(check int) "no local choice" 0 (Dist.size (s.Scheduler.choose (Exec.init (Psioa.start ch))))

let test_halt_scheduler () =
  let s = Scheduler.halt in
  Alcotest.(check int) "empty" 0 (Dist.size (s.Scheduler.choose (Exec.init Value.unit)))

let test_bounded_scheduler () =
  let c = Fixtures.coin "c" in
  let s = Scheduler.bounded 2 (Scheduler.first_enabled c) in
  let heads = Value.tag "heads" Value.unit in
  let e2 =
    Exec.extend (Exec.extend (Exec.init (Psioa.start c)) (act "c.flip") heads) (act "c.heads") heads
  in
  Alcotest.(check int) "halts at bound" 0 (Dist.size (s.Scheduler.choose e2));
  let e1 = Exec.extend (Exec.init (Psioa.start c)) (act "c.flip") heads in
  Alcotest.(check int) "active below bound" 1 (Dist.size (s.Scheduler.choose e1))

let test_oblivious_script () =
  let c = Fixtures.coin "c" in
  let s = Scheduler.oblivious c [ act "c.flip"; act "c.heads" ] in
  let e0 = Exec.init (Psioa.start c) in
  Alcotest.(check int) "step 0 fires" 1 (Dist.size (s.Scheduler.choose e0));
  (* After flip to tails, script wants c.heads which is disabled: halt. *)
  let tails = Value.tag "tails" Value.unit in
  let e1 = Exec.extend e0 (act "c.flip") tails in
  Alcotest.(check int) "disabled action halts" 0 (Dist.size (s.Scheduler.choose e1))

let test_validate_choice_rejects () =
  let c = Fixtures.coin "c" in
  let bad = Scheduler.make ~name:"bad" (fun _ -> Dist.dirac ~compare:Action.compare (act "ghost")) in
  (try
     ignore (Scheduler.validate_choice c bad (Exec.init (Psioa.start c)));
     Alcotest.fail "expected Bad_choice"
   with Scheduler.Bad_choice { scheduler; _ } -> Alcotest.(check string) "name" "bad" scheduler)

(* ---------------------------------------------------------------- Measure *)

let test_exec_dist_coin () =
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 1 (Scheduler.first_enabled c) in
  let d = Measure.exec_dist c sched ~depth:4 in
  Alcotest.(check int) "two completed executions" 2 (Dist.size d);
  Alcotest.(check bool) "proper measure" true (Dist.is_proper d);
  List.iter (fun (e, p) ->
      Alcotest.(check int) "length 1" 1 (Exec.length e);
      Alcotest.check rat "1/2" Rat.half p)
    (Dist.items d)

let test_exec_dist_depth_cutoff () =
  let k = Fixtures.counter ~bound:10 "k" in
  let sched = Scheduler.first_enabled k in
  let d = Measure.exec_dist k sched ~depth:3 in
  Alcotest.(check int) "single deterministic run" 1 (Dist.size d);
  Alcotest.(check int) "cut at depth" 3 (Exec.length (List.hd (Dist.support d)))

let test_exec_dist_halt_when_empty () =
  let k = Fixtures.counter ~bound:2 "k" in
  let sched = Scheduler.first_enabled k in
  let d = Measure.exec_dist k sched ~depth:10 in
  Alcotest.(check int) "stops at sig-empty state" 2 (Exec.length (List.hd (Dist.support d)));
  Alcotest.(check bool) "proper" true (Dist.is_proper d)

let test_cone_prob () =
  let c = Fixtures.coin "c" in
  let sched = Scheduler.uniform c in
  let heads = Value.tag "heads" Value.unit in
  let e = Exec.extend (Exec.init (Psioa.start c)) (act "c.flip") heads in
  Alcotest.check rat "P(cone flip→heads) = 1/2" Rat.half (Measure.cone_prob c sched e);
  let e2 = Exec.extend e (act "c.heads") heads in
  Alcotest.check rat "deterministic continuation keeps 1/2" Rat.half (Measure.cone_prob c sched e2);
  let bogus = Exec.extend (Exec.init heads) (act "c.flip") heads in
  Alcotest.check rat "wrong start has measure 0" Rat.zero (Measure.cone_prob c sched bogus)

let test_cone_prefix_monotone () =
  (* ε_σ(C_α) ≥ ε_σ(C_α') when α ≤ α'. *)
  let ch = Fixtures.channel "ch" in
  let s = Fixtures.sender ~channel_name:"ch" ~script:[ 0; 1 ] "s" in
  let sys = Compose.pair s ch in
  let sched = Scheduler.uniform sys in
  let d = Measure.exec_dist sys sched ~depth:4 in
  List.iter
    (fun e ->
      let rec prefixes acc cur = function
        | [] -> acc
        | (a, q) :: rest -> let nxt = Exec.extend cur a q in prefixes (nxt :: acc) nxt rest
      in
      let ps = prefixes [] (Exec.init (Exec.fstate e)) (Exec.steps e) in
      let probs = List.rev_map (Measure.cone_prob sys sched) ps in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> Rat.compare a b >= 0 && decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone along prefixes" true (decreasing probs))
    (Dist.support d)

let test_trace_dist () =
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 2 (Scheduler.first_enabled c) in
  let d = Measure.trace_dist c sched ~depth:4 in
  (* flip is internal: traces are [c.heads] and [c.tails], 1/2 each. *)
  Alcotest.(check int) "two traces" 2 (Dist.size d);
  Alcotest.check rat "heads trace 1/2" Rat.half (Dist.prob d [ act "c.heads" ])

(* ------------------------------------------------------- Budgeted measure *)

let test_budget_exact_when_unhit () =
  (* Budgets loose enough never to fire leave the measure bit-for-bit
     identical to the unbudgeted computation, and report [`Exact]. *)
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 4 (Scheduler.uniform c) in
  let plain = Measure.exec_dist c sched ~depth:5 in
  (match Measure.exec_dist_budgeted c sched ~depth:5 with
  | `Exact d -> Alcotest.(check bool) "no budgets: same dist" true (Dist.equal d plain)
  | `Truncated _ -> Alcotest.fail "no budget given, yet truncated");
  match Measure.exec_dist_budgeted ~max_execs:100_000 ~max_width:100_000 c sched ~depth:5 with
  | `Exact d -> Alcotest.(check bool) "loose budgets: same dist" true (Dist.equal d plain)
  | `Truncated _ -> Alcotest.fail "loose budgets must not truncate"

let test_budget_truncation_mass_accounting () =
  let w = Fixtures.random_walk ~span:4 "rw" in
  let sched = Scheduler.bounded 6 (Scheduler.uniform w) in
  let full = Measure.exec_dist w sched ~depth:7 in
  Alcotest.(check bool) "enough branching to truncate" true (Dist.size full > 4);
  match Measure.exec_dist_budgeted ~max_execs:3 w sched ~depth:7 with
  | `Exact _ -> Alcotest.fail "cap below support size must truncate"
  | `Truncated (d, lost) ->
      Alcotest.(check bool) "support within cap" true (Dist.size d <= 3);
      Alcotest.(check bool) "deficit strictly positive" true (Rat.sign lost > 0);
      Alcotest.check rat "dist mass + deficit = 1 exactly" Rat.one
        (Rat.add (Dist.mass d) lost);
      (* the reference oracle truncates identically *)
      (match fst (Oracle.exec_dist_budgeted ~max_execs:3 w sched ~depth:7) with
      | `Truncated (d', lost') ->
          Alcotest.(check bool) "oracle: same dist" true (Dist.equal d d');
          Alcotest.check rat "oracle: same deficit" lost lost'
      | `Exact _ -> Alcotest.fail "the oracle must truncate too")

let test_budget_width_is_exact_submeasure () =
  (* Width pruning drops whole cones but never rescales: every retained
     execution keeps its exact unbudgeted probability. *)
  let w = Fixtures.random_walk ~span:4 "rw" in
  let sched = Scheduler.bounded 6 (Scheduler.uniform w) in
  match Measure.exec_dist_budgeted ~max_width:2 w sched ~depth:7 with
  | `Exact _ -> Alcotest.fail "width 2 must truncate the walk"
  | `Truncated (d, lost) ->
      Alcotest.check rat "mass + deficit = 1" Rat.one (Rat.add (Dist.mass d) lost);
      let full = Measure.exec_dist w sched ~depth:7 in
      List.iter
        (fun (e, p) -> Alcotest.check rat "retained prob is exact" (Dist.prob full e) p)
        (Dist.items d)

let test_budget_reach_prob_brackets () =
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 3 (Scheduler.uniform c) in
  let pred q = Value.equal q (Value.tag "heads" Value.unit) in
  let exact = Measure.reach_prob c sched ~depth:4 ~pred in
  match Measure.reach_prob_budgeted ~max_execs:1 c sched ~depth:4 ~pred with
  | `Exact _ -> Alcotest.fail "support 2 capped at 1 must truncate"
  | `Truncated (p, lost) ->
      Alcotest.(check bool) "lower bound" true (Rat.compare p exact <= 0);
      Alcotest.(check bool) "upper bound p + deficit" true
        (Rat.compare exact (Rat.add p lost) <= 0)

(* ---------------------------------------------------------------- Insight *)

let coin_env_composite name p =
  (* Environment accepting when it observes the coin landing heads. *)
  let c = Fixtures.coin ~p name in
  let env = Fixtures.acceptor ~watch:[ (name ^ ".heads", None) ] "env" in
  (env, Compose.pair env c)

let test_accept_insight () =
  let env, comp = coin_env_composite "c" Rat.half in
  ignore env;
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled comp) in
  let f = Insight.accept comp in
  let d = Insight.apply f comp sched ~depth:5 in
  (* first_enabled: flip; if heads then acc eventually fires. *)
  Alcotest.check rat "accept prob 1/2" Rat.half (Dist.prob d (Value.bool true))

(* [~domains] survives only for callers that still pass it: 1 is the
   plain measure, anything else is refused. *)
let test_apply_domains_only_one () =
  let _, comp = coin_env_composite "c" Rat.half in
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled comp) in
  let f = Insight.accept comp in
  Alcotest.(check bool) "~domains:1 is the plain f-dist" true
    (Dist.equal (Insight.apply f comp sched ~depth:5)
       (Insight.apply ~domains:1 f comp sched ~depth:5));
  match Insight.apply ~domains:2 f comp sched ~depth:5 with
  | _ -> Alcotest.fail "~domains:2 accepted"
  | exception Invalid_argument _ -> ()

let test_accept_detects_bias () =
  let _, comp_fair = coin_env_composite "c" Rat.half in
  let _, comp_biased = coin_env_composite "c" (Rat.of_ints 3 4) in
  let sched a = Scheduler.bounded 3 (Scheduler.first_enabled a) in
  let verdict =
    Balance.check ~eps:Rat.zero ~depth:5
      (Insight.accept comp_fair, comp_fair, sched comp_fair)
      (Insight.accept comp_biased, comp_biased, sched comp_biased)
  in
  Alcotest.(check bool) "not balanced at 0" false verdict.Balance.within;
  Alcotest.check rat "distance = 1/4" (Rat.of_ints 1 4) verdict.Balance.distance

let test_balanced_identical_renamed () =
  (* The same coin under two different automaton names is indistinguishable
     through the accept insight: distance exactly 0 (the ε=0 case that
     motivates exact rationals). *)
  let _, comp_a = coin_env_composite "c" Rat.half in
  let env_b = Fixtures.acceptor ~watch:[ ("d.heads", None) ] "env" in
  let comp_b = Compose.pair env_b (Fixtures.coin "d") in
  let sched a = Scheduler.bounded 3 (Scheduler.first_enabled a) in
  let verdict =
    Balance.check ~eps:Rat.zero ~depth:5
      (Insight.accept comp_a, comp_a, sched comp_a)
      (Insight.accept comp_b, comp_b, sched comp_b)
  in
  Alcotest.(check bool) "balanced at ε=0" true verdict.Balance.within

let test_trace_insight_observation () =
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 2 (Scheduler.first_enabled c) in
  let f = Insight.trace c in
  let d = Insight.apply f c sched ~depth:4 in
  Alcotest.(check int) "two observations" 2 (Dist.size d)

let test_print_insight_env_view () =
  let env, comp = coin_env_composite "c" Rat.half in
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled comp) in
  let f = Insight.print_left env comp in
  let d = Insight.apply f comp sched ~depth:5 in
  (* The environment either observes heads (then acc) or nothing: two
     distinct local views. *)
  Alcotest.(check int) "two env views" 2 (Dist.size d)

(* [print] observes the environment's intermediate states. The
   environment goes 0 →a→ {1, 2} uniformly →b→ 3, all internal, so the two
   executions share their (empty) trace and their last state: one
   representative per (trace, last state) would show a single view of
   mass 1. *)
let test_print_sees_intermediate_states () =
  let a = act "e.a" and b = act "e.b" in
  let env =
    Psioa.make ~name:"e" ~start:(Value.int 0)
      ~signature:(function
        | Value.Int 0 -> Sigs.of_lists ~h:[ a ] ()
        | Value.Int (1 | 2) -> Sigs.of_lists ~h:[ b ] ()
        | _ -> Sigs.empty)
      ~transition:(fun q x ->
        match q with
        | Value.Int 0 when Action.equal x a -> Some (Vdist.uniform [ Value.int 1; Value.int 2 ])
        | Value.Int (1 | 2) when Action.equal x b -> Some (Vdist.dirac (Value.int 3))
        | _ -> None)
  in
  let idle =
    Psioa.make ~name:"idle" ~start:Value.unit
      ~signature:(fun _ -> Sigs.empty)
      ~transition:(fun _ _ -> None)
  in
  let comp = Compose.pair env idle in
  let d =
    Insight.apply (Insight.print_left env comp) comp (Scheduler.first_enabled comp) ~depth:2
  in
  Alcotest.(check (list string)) "two views of mass 1/2" [ "1/2"; "1/2" ]
    (List.map (fun (_, p) -> Rat.to_string p) (Dist.items d))

let test_stability_print_insight () =
  (* Def 3.7 for the print insight — the paper notes print is stable by
     composition and is the one suited to monotonicity results. Unlike
     accept/trace, the print observer changes with the grouping: E's local
     view when E observes B‖Aᵢ, and (E‖B)'s local view when E‖B observes
     Aᵢ — so the comparison is spelled out rather than going through
     check_stability. *)
  let env = Fixtures.acceptor ~watch:[ ("c.heads", None); ("d.heads", None) ] "env" in
  let ctx = Fixtures.counter ~bound:1 "ctx" in
  let a1 = Fixtures.coin "c" ~p:Rat.half in
  let a2 = Fixtures.coin "c" ~p:(Rat.of_ints 1 3) in
  let sched a = Scheduler.bounded 4 (Scheduler.first_enabled a) in
  let dist observer mk =
    let c1 = mk a1 and c2 = mk a2 in
    Stat.sup_set_distance
      (Insight.apply (Insight.print_left observer c1) c1 (sched c1) ~depth:6)
      (Insight.apply (Insight.print_left observer c2) c2 (sched c2) ~depth:6)
  in
  let d_env = dist env (fun a -> Compose.pair env (Compose.pair ctx a)) in
  let envctx = Compose.pair env ctx in
  let d_envctx = dist envctx (fun a -> Compose.pair envctx a) in
  Alcotest.(check bool) "E's print distance ≤ (E||B)'s" true (Rat.compare d_env d_envctx <= 0)

let test_stability_by_composition () =
  (* Def 3.7 on a concrete instance: E observing through context B has no
     more distinguishing power than E||B directly. *)
  let env = Fixtures.acceptor ~watch:[ ("c.heads", None); ("d.heads", None) ] "env" in
  let ctx = Fixtures.counter ~bound:1 "ctx" in
  let a1 = Fixtures.coin "c" ~p:Rat.half in
  let a2 = Fixtures.coin "c" ~p:(Rat.of_ints 1 3) in
  let ok =
    Insight.check_stability ~make_insight:Insight.accept ~env ~ctx ~a1 ~a2
      ~sched_of:(fun a -> Scheduler.bounded 4 (Scheduler.first_enabled a))
      ~depth:6
  in
  Alcotest.(check bool) "accept stable by composition" true ok

(* The layer loop stops at [step = depth], so on an automaton that never
   halts a negative depth would expand forever; the engine and the sampler
   reject it instead. The engine rejects a negative budget too, naming
   it. *)
let test_negative_depth_rejected () =
  let tick = act "t.tick" in
  let forever =
    Psioa.make ~name:"t" ~start:Value.unit
      ~signature:(fun _ -> Sigs.of_lists ~h:[ tick ] ())
      ~transition:(fun q a ->
        if Action.equal a tick then Some (Dist.dirac ~compare:Value.compare q) else None)
  in
  let sched = Scheduler.first_enabled forever in
  let rejected what f =
    match f () with
    | () -> Alcotest.failf "%s accepted depth -1" what
    | exception Invalid_argument _ -> ()
  in
  rejected "exec_dist" (fun () -> ignore (Measure.exec_dist forever sched ~depth:(-1)));
  rejected "sample_exec" (fun () ->
      ignore (Measure.sample_exec forever sched ~rng:(Rng.make 1) ~depth:(-1)));
  let budget name = Invalid_argument (Printf.sprintf "Measure: %s -5 is negative" name) in
  Alcotest.check_raises "exec_dist_budgeted ~max_execs:(-5)" (budget "max_execs") (fun () ->
      ignore (Measure.exec_dist_budgeted ~max_execs:(-5) forever sched ~depth:3));
  Alcotest.check_raises "exec_dist_budgeted ~max_width:(-5)" (budget "max_width") (fun () ->
      ignore (Measure.exec_dist_budgeted ~max_width:(-5) forever sched ~depth:3));
  Alcotest.check_raises "reach_prob_budgeted ~max_execs:(-5)" (budget "max_execs") (fun () ->
      ignore (Measure.reach_prob_budgeted ~max_execs:(-5) forever sched ~depth:3 ~pred:(fun _ -> true)))

let test_sample_exec_in_cone () =
  (* Every sampled execution has positive exact cone probability. *)
  let c = Fixtures.coin "c" in
  let sched = Scheduler.bounded 2 (Scheduler.uniform c) in
  let rng = Rng.make 99 in
  for _ = 1 to 100 do
    let e = Measure.sample_exec c sched ~rng ~depth:4 in
    if Rat.is_zero (Measure.cone_prob c sched e) then
      Alcotest.fail "sampled execution outside the measure's support"
  done

let test_estimate_fdist_converges () =
  (* The empirical accept frequency converges to the exact 1/2. *)
  let env, comp = coin_env_composite "c" Rat.half in
  ignore env;
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled comp) in
  let f = Insight.accept comp in
  let est =
    Measure.estimate_fdist comp sched ~observe:f.Insight.observe ~rng:(Rng.make 4) ~samples:4000
      ~depth:5
  in
  let p_true = Option.value ~default:0.0 (List.assoc_opt (Value.bool true) est) in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.3f within 0.05 of exact 0.5" p_true)
    true
    (Float.abs (p_true -. 0.5) < 0.05)

let test_print_nth_matches_print_left () =
  (* On a two-component parallel composite with the environment first,
     print_nth 0 and print_left (on the pair composite) observe the same
     environment view distribution. *)
  let c = Fixtures.coin "c" in
  let env = Fixtures.acceptor ~watch:[ ("c.heads", None) ] "env" in
  let par = Compose.parallel [ env; c ] in
  let pair = Compose.pair env c in
  let d_par =
    Insight.apply (Insight.print_nth env 0 par) par
      (Scheduler.bounded 3 (Scheduler.first_enabled par)) ~depth:5
  in
  let d_pair =
    Insight.apply (Insight.print_left env pair) pair
      (Scheduler.bounded 3 (Scheduler.first_enabled pair)) ~depth:5
  in
  Alcotest.(check bool) "same observation measure" true (Cdse_prob.Dist.equal d_par d_pair)

let test_reach_prob_walk () =
  (* Gambler's-ruin flavoured exact check: from 2 on 0..4, reaching 4
     within 2 steps has probability 1/4; within 4 steps it is
     1/4 + 2·(1/16) = 3/8 (up-up, and the two up-down/down-up detours that
     then go up-up). *)
  let w = Fixtures.random_walk ~span:4 "w" in
  let at4 = function Value.Tag ("walk", Value.Int 4) -> true | _ -> false in
  let sched d = Scheduler.bounded d (Scheduler.first_enabled w) in
  Alcotest.check rat "depth 2" (Rat.of_ints 1 4)
    (Measure.reach_prob w (sched 2) ~depth:2 ~pred:at4);
  Alcotest.check rat "depth 4" (Rat.of_ints 3 8)
    (Measure.reach_prob w (sched 4) ~depth:4 ~pred:at4)

let test_expected_steps () =
  (* The fragile automaton survives each step w.p. 1/2 under a 3-bounded
     scheduler: E[steps] = 1 + 1/2 + 1/4 = 7/4. *)
  let f = Fixtures.fragile "f" in
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled f) in
  Alcotest.check rat "E[steps] = 7/4" (Rat.of_ints 7 4) (Measure.expected_steps f sched ~depth:5)

(* ----------------------------------------------------------------- Schema *)

let test_schema_standard () =
  let c = Fixtures.coin "c" in
  let scheds = Schema.instantiate (Schema.standard ~bound:3) c in
  Alcotest.(check int) "three schedulers" 3 (List.length scheds);
  (* The coin repeats its outcome forever, so only the bound halts it. *)
  let heads = Value.tag "heads" Value.unit in
  let e2 =
    Exec.extend (Exec.extend (Exec.init (Psioa.start c)) (act "c.flip") heads) (act "c.heads") heads
  in
  let e3 = Exec.extend e2 (act "c.heads") heads in
  List.iter
    (fun s ->
      Alcotest.(check bool) "active below the bound" true (Dist.size (s.Scheduler.choose e2) > 0);
      Alcotest.(check int) "halts at the bound" 0 (Dist.size (s.Scheduler.choose e3)))
    scheds

let test_schema_oblivious () =
  let c = Fixtures.coin "c" in
  let schema = Schema.oblivious ~scripts:[ [ act "c.flip" ]; [ act "c.flip"; act "c.heads" ] ] in
  Alcotest.(check int) "two scripts" 2 (List.length (Schema.instantiate schema c))

let () =
  Alcotest.run "cdse_sched"
    [ ( "scheduler",
        [ Alcotest.test_case "uniform" `Quick test_uniform_choice;
          Alcotest.test_case "free inputs not scheduled" `Quick test_uniform_skips_free_inputs;
          Alcotest.test_case "halt" `Quick test_halt_scheduler;
          Alcotest.test_case "bounded (Def 4.6)" `Quick test_bounded_scheduler;
          Alcotest.test_case "oblivious script" `Quick test_oblivious_script;
          Alcotest.test_case "support condition enforced" `Quick test_validate_choice_rejects ] );
      ( "measure",
        [ Alcotest.test_case "coin exec dist" `Quick test_exec_dist_coin;
          Alcotest.test_case "depth cutoff" `Quick test_exec_dist_depth_cutoff;
          Alcotest.test_case "halting on empty signature" `Quick test_exec_dist_halt_when_empty;
          Alcotest.test_case "cone probability" `Quick test_cone_prob;
          Alcotest.test_case "cone monotone on prefixes" `Quick test_cone_prefix_monotone;
          Alcotest.test_case "trace dist" `Quick test_trace_dist;
          Alcotest.test_case "sampling stays in support" `Quick test_sample_exec_in_cone;
          Alcotest.test_case "Monte-Carlo converges" `Quick test_estimate_fdist_converges;
          Alcotest.test_case "reachability probability (exact)" `Quick test_reach_prob_walk;
          Alcotest.test_case "expected steps (exact)" `Quick test_expected_steps;
          Alcotest.test_case "negative depth rejected" `Quick test_negative_depth_rejected ] );
      ( "budgeted-measure",
        [ Alcotest.test_case "loose budgets are exact" `Quick test_budget_exact_when_unhit;
          Alcotest.test_case "truncation: mass + deficit = 1" `Quick
            test_budget_truncation_mass_accounting;
          Alcotest.test_case "width pruning is an exact sub-measure" `Quick
            test_budget_width_is_exact_submeasure;
          Alcotest.test_case "budgeted reach_prob brackets" `Quick
            test_budget_reach_prob_brackets ] );
      ( "insight",
        [ Alcotest.test_case "accept (Def 3.4)" `Quick test_accept_insight;
          Alcotest.test_case "accept detects bias" `Quick test_accept_detects_bias;
          Alcotest.test_case "apply accepts only ~domains:1" `Quick test_apply_domains_only_one;
          Alcotest.test_case "balanced at ε=0 (Def 3.6)" `Quick test_balanced_identical_renamed;
          Alcotest.test_case "trace observation" `Quick test_trace_insight_observation;
          Alcotest.test_case "print: environment view" `Quick test_print_insight_env_view;
          Alcotest.test_case "print: intermediate states" `Quick
            test_print_sees_intermediate_states;
          Alcotest.test_case "print_nth agrees with print_left" `Quick test_print_nth_matches_print_left;
          Alcotest.test_case "stability by composition (Def 3.7)" `Quick test_stability_by_composition;
          Alcotest.test_case "print stability (Def 3.7)" `Quick test_stability_print_insight ] );
      ( "schema",
        [ Alcotest.test_case "standard schema" `Quick test_schema_standard;
          Alcotest.test_case "oblivious schema" `Quick test_schema_oblivious ] ) ]
