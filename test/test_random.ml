(* Randomized cross-layer property suite: seeded random automata
   (Cdse_gen.Random_auto) driven through validation, composition, hiding,
   renaming, scheduling, measures, boundedness and the dummy-adversary
   forwarding — the properties the paper's lemmas promise, on arbitrary
   instances rather than hand-built fixtures. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit

let qtest = QCheck_alcotest.to_alcotest

let auto_arb =
  (* An arbitrary over generated automata, shrunk only by seed. *)
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* n_states = int_range 2 8 in
      let* n_actions = int_range 1 4 in
      return
        ( seed,
          Cdse_gen.Random_auto.make ~rng:(Rng.make seed) ~name:"ra" ~n_states ~n_actions () ))
  in
  QCheck.make ~print:(fun (seed, _) -> Printf.sprintf "seed %d" seed) gen

let auto_pair_arb =
  (* Two independently generated automata with disjoint alphabets. *)
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let rng = Rng.make seed in
      let a = Cdse_gen.Random_auto.make ~rng ~name:"pa" ~n_states:5 ~n_actions:3 () in
      let b = Cdse_gen.Random_auto.make ~rng ~name:"pb" ~n_states:5 ~n_actions:3 () in
      return (seed, a, b))
  in
  QCheck.make ~print:(fun (seed, _, _) -> Printf.sprintf "seed %d" seed) gen

(* --------------------------------------------------------- PSIOA layer *)

let prop_random_valid =
  QCheck.Test.make ~count:50 ~name:"random automata satisfy Definition 2.1" auto_arb
    (fun (_, a) -> Psioa.validate ~max_states:200 a = Ok ())

let prop_random_compose_valid =
  QCheck.Test.make ~count:30 ~name:"composition of random automata is a PSIOA (closure)"
    auto_pair_arb (fun (_, a, b) ->
      Psioa.validate ~max_states:300 (Compose.pair a b) = Ok ())

let prop_compose_signature_is_union =
  (* Disjoint alphabets: composed sig-hat = union of component sig-hats. *)
  QCheck.Test.make ~count:30 ~name:"disjoint composition: sig-hat is the union" auto_pair_arb
    (fun (_, a, b) ->
      let c = Compose.pair a b in
      List.for_all
        (fun q ->
          let qa, qb = Compose.proj_pair q in
          Action_set.equal
            (Sigs.all (Psioa.signature c q))
            (Action_set.union (Sigs.all (Psioa.signature a qa)) (Sigs.all (Psioa.signature b qb))))
        (Psioa.reachable ~max_states:100 c))

let prop_hide_preserves_measures =
  QCheck.Test.make ~count:30 ~name:"hiding changes no transition measure (Def 2.7)" auto_arb
    (fun (_, a) ->
      let hidden = Hide.psioa_const a (Psioa.universal_actions a) in
      List.for_all
        (fun q ->
          Action_set.for_all
            (fun act -> Dist.equal (Psioa.step a q act) (Psioa.step hidden q act))
            (Psioa.enabled a q))
        (Psioa.reachable ~max_states:100 a))

let prop_rename_roundtrip =
  QCheck.Test.make ~count:30 ~name:"renaming then inverse renaming is the identity" auto_arb
    (fun (_, a) ->
      let r = Rename.prefix "X." in
      let strip _q act =
        Action.with_name (fun n -> String.sub n 2 (String.length n - 2)) act
      in
      let back = Rename.psioa (Rename.psioa a r) strip in
      List.for_all
        (fun q ->
          Sigs.equal (Psioa.signature a q) (Psioa.signature back q)
          && Action_set.for_all
               (fun act -> Dist.equal (Psioa.step a q act) (Psioa.step back q act))
               (Psioa.enabled a q))
        (Psioa.reachable ~max_states:100 a))

let prop_rename_preserves_validity =
  QCheck.Test.make ~count:30 ~name:"Lemma A.1 on random automata" auto_arb (fun (_, a) ->
      Psioa.validate ~max_states:200 (Rename.psioa a (Rename.prefix "Y.")) = Ok ())

(* ------------------------------------------------------ scheduler layer *)

let scheds auto = [ Scheduler.first_enabled auto; Scheduler.round_robin auto; Scheduler.uniform auto ]

let prop_exec_dist_proper =
  QCheck.Test.make ~count:30 ~name:"ε_σ is a probability measure (mass 1)" auto_arb
    (fun (_, a) ->
      List.for_all
        (fun s -> Dist.is_proper (Measure.exec_dist a (Scheduler.bounded 4 s) ~depth:6))
        (scheds a))

let prop_exec_dist_depth_bound =
  QCheck.Test.make ~count:30 ~name:"bounded scheduler never exceeds its bound (Def 4.6)"
    auto_arb (fun (_, a) ->
      List.for_all
        (fun s ->
          List.for_all
            (fun e -> Exec.length e <= 4)
            (Dist.support (Measure.exec_dist a (Scheduler.bounded 4 s) ~depth:10)))
        (scheds a))

let prop_cone_matches_exec_dist =
  (* The measure of C_α computed incrementally agrees with the mass of
     extensions of α in the full measure. *)
  QCheck.Test.make ~count:20 ~name:"cone probability consistent with ε_σ" auto_arb
    (fun (_, a) ->
      let sched = Scheduler.bounded 3 (Scheduler.uniform a) in
      let d = Measure.exec_dist a sched ~depth:5 in
      List.for_all
        (fun (e, _) ->
          let cone = Measure.cone_prob a sched e in
          let mass_ext =
            Rat.sum
              (List.filter_map
                 (fun (e', p) -> if Exec.is_prefix e ~of_:e' then Some p else None)
                 (Dist.items d))
          in
          Rat.equal cone mass_ext)
        (Dist.items d))

let prop_trace_dist_mass =
  QCheck.Test.make ~count:30 ~name:"trace pushforward preserves mass" auto_arb (fun (_, a) ->
      let sched = Scheduler.bounded 4 (Scheduler.uniform a) in
      Dist.is_proper (Measure.trace_dist a sched ~depth:6))

let prop_memoize_same_measure =
  QCheck.Test.make ~count:20 ~name:"ablation A2: memoization preserves ε_σ exactly" auto_arb
    (fun (_, a) ->
      let m = Psioa.memoize a in
      let run x = Measure.exec_dist x (Scheduler.bounded 4 (Scheduler.first_enabled x)) ~depth:6 in
      Dist.equal (run a) (run m))

(* -------------------------------------------------------- bounded layer *)

let prop_lemma_43_random =
  QCheck.Test.make ~count:15 ~name:"Lemma 4.3 shape on random pairs" auto_pair_arb
    (fun (_, a, b) ->
      let r1 = Cdse_bounded.Bounded.measure_psioa ~max_states:60 a in
      let r2 = Cdse_bounded.Bounded.measure_psioa ~max_states:60 b in
      let r12 = Cdse_bounded.Bounded.measure_psioa ~max_states:120 (Compose.pair a b) in
      Cdse_bounded.Bounded.comp_ratio r1 r2 r12 <= 4.0)

let prop_bound_monotone_in_b =
  QCheck.Test.make ~count:20 ~name:"is_time_bounded monotone in b" auto_arb (fun (_, a) ->
      let r = Cdse_bounded.Bounded.measure_psioa ~max_states:60 a in
      Cdse_bounded.Bounded.is_time_bounded ~max_states:60 a ~b:(r.Cdse_bounded.Bounded.bound + 100))

(* ------------------------------------------------------------- exec laws *)

let execs_of seed =
  let auto = Cdse_gen.Random_auto.make ~rng:(Rng.make seed) ~name:"ex" ~n_states:5 ~n_actions:3 () in
  let sched = Scheduler.bounded 4 (Scheduler.uniform auto) in
  (auto, Dist.support (Measure.exec_dist auto sched ~depth:4))

let prop_exec_concat_prefix_laws =
  QCheck.Test.make ~count:20 ~name:"exec: splitting at any point and concatenating is identity"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let _, execs = execs_of seed in
      List.for_all
        (fun e ->
          let steps = Exec.steps e in
          List.for_all
            (fun cut ->
              let pre = Exec.of_steps (Exec.fstate e) (List.filteri (fun i _ -> i < cut) steps) in
              let post = Exec.of_steps (Exec.lstate pre) (List.filteri (fun i _ -> i >= cut) steps) in
              Exec.equal e (Exec.concat pre post) && Exec.is_prefix pre ~of_:e)
            (List.init (Exec.length e + 1) Fun.id))
        execs)

let prop_exec_trace_subsequence =
  QCheck.Test.make ~count:20 ~name:"exec: trace is a subsequence of the actions"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let auto, execs = execs_of seed in
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xr, y :: yr -> if Action.equal x y then subseq xr yr else subseq xs yr
      in
      List.for_all
        (fun e -> subseq (Exec.trace ~sig_of:(Psioa.signature auto) e) (Exec.actions e))
        execs)

(* --------------------------------------------------------- config layer *)

let pca_arb =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* n = int_range 2 5 in
      return (seed, Cdse_gen.Random_pca.make ~rng:(Rng.make seed) ~n_members:n ()))
  in
  QCheck.make ~print:(fun (seed, _) -> Printf.sprintf "seed %d" seed) gen

let prop_random_pca_constraints =
  QCheck.Test.make ~count:25 ~name:"random PCA satisfies Definition 2.16" pca_arb
    (fun (_, pca) ->
      Cdse_config.Pca.check_constraints ~max_states:120 ~max_depth:4 pca = Ok ())

let prop_random_pca_psioa_valid =
  QCheck.Test.make ~count:25 ~name:"random PCA's PSIOA satisfies Definition 2.1" pca_arb
    (fun (_, pca) ->
      Psioa.validate ~max_states:120 ~max_depth:4 (Cdse_config.Pca.psioa pca) = Ok ())

let prop_random_pca_configs_reduced =
  QCheck.Test.make ~count:25 ~name:"every reachable configuration is reduced (Def 2.12)" pca_arb
    (fun (_, pca) ->
      let reg = Cdse_config.Pca.registry pca in
      List.for_all
        (fun q -> Cdse_config.Config.is_reduced reg (Cdse_config.Pca.config_of pca q))
        (Psioa.reachable ~max_states:120 ~max_depth:4 (Cdse_config.Pca.psioa pca)))

let prop_random_pca_compose_closure =
  (* Definition 2.19 closure on random instances: the composite of two
     random PCAs (disjoint alphabets) still satisfies Definition 2.16. *)
  QCheck.Test.make ~count:12 ~name:"PCA composition closure (Def 2.19) on random pairs"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.make seed in
      let p1 = Cdse_gen.Random_pca.make ~rng ~n_members:3 ~prefix:"x" () in
      let p2 = Cdse_gen.Random_pca.make ~rng ~n_members:3 ~prefix:"y" () in
      let comp = Cdse_config.Pca.compose_pair p1 p2 in
      Cdse_config.Pca.check_constraints ~max_states:100 ~max_depth:3 comp = Ok ())

let prop_random_pca_hide_closure =
  QCheck.Test.make ~count:20 ~name:"PCA hiding closure (Def 2.17) on random instances" pca_arb
    (fun (_, pca) ->
      let auto = Cdse_config.Pca.psioa pca in
      let outs =
        Action_set.filter
          (fun a -> Action.hash a mod 2 = 0)
          (Psioa.universal_actions ~max_states:120 ~max_depth:4 auto)
      in
      let hidden = Cdse_config.Pca.hide pca (fun _ -> outs) in
      (* At most 116 states lie within depth 4 over every seed and size
         [pca_arb] draws, and hiding keeps the states. *)
      Cdse_config.Pca.check_constraints ~max_states:120 ~max_depth:4 hidden = Ok ())

let prop_random_pca_measure_proper =
  QCheck.Test.make ~count:20 ~name:"ε_σ proper on random dynamic systems" pca_arb
    (fun (_, pca) ->
      let auto = Cdse_config.Pca.psioa pca in
      List.for_all
        (fun s -> Dist.is_proper (Measure.exec_dist auto (Scheduler.bounded 3 s) ~depth:5))
        [ Scheduler.first_enabled auto; Scheduler.uniform auto ])

let prop_random_config_reduce_idempotent =
  QCheck.Test.make ~count:25 ~name:"reduce idempotent on random configurations" pca_arb
    (fun (_, pca) ->
      let reg = Cdse_config.Pca.registry pca in
      List.for_all
        (fun q ->
          let c = Cdse_config.Pca.config_of pca q in
          Cdse_config.Config.equal (Cdse_config.Config.reduce reg c)
            (Cdse_config.Config.reduce reg (Cdse_config.Config.reduce reg c)))
        (Psioa.reachable ~max_states:80 ~max_depth:4 (Cdse_config.Pca.psioa pca)))

(* --------------------------------------------------------- secure layer *)

let relay_of_seed seed =
  let n = 1 + (seed mod 3) in
  let alphabet = List.init n Fun.id in
  let relay = Sfixtures.relay ~alphabet "proto" in
  let adv =
    Sfixtures.relay_adversary ~alphabet ~proto_name:"proto" ~rename:(fun s -> "g." ^ s) "adv"
  in
  let env = Sfixtures.relay_env ~alphabet ~m0:(seed mod n) ~proto_name:"proto" "env" in
  (relay, adv, env)

let prop_d1_random_relays =
  QCheck.Test.make ~count:15 ~name:"Lemma D.1 exact on random relay instances"
    QCheck.(int_bound 1000)
    (fun seed ->
      let relay, adv, env = relay_of_seed seed in
      let setup =
        Cdse_secure.Forwarding.make_setup ~structured:relay
          ~g:(Cdse_secure.Dummy.prefix_renaming "g.") ~env ~adv ()
      in
      let lhs = Cdse_secure.Forwarding.lhs setup in
      let scheds = [ Scheduler.first_enabled lhs; Scheduler.uniform lhs; Scheduler.round_robin lhs ] in
      List.for_all
        (fun sched ->
          (Cdse_secure.Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept ~sched ~q1:6
             ~depth:6)
            .Cdse_secure.Forwarding.exact)
        scheds)

let prop_forward_exec_cone_preserved =
  (* ε_σ(C_α) = ε_{σ'}(C_{Forward^e α}): the construction preserves cone
     probabilities, not just final observations. *)
  QCheck.Test.make ~count:10 ~name:"Forward^e preserves cone probabilities"
    QCheck.(int_bound 1000)
    (fun seed ->
      let relay, adv, env = relay_of_seed seed in
      let setup =
        Cdse_secure.Forwarding.make_setup ~structured:relay
          ~g:(Cdse_secure.Dummy.prefix_renaming "g.") ~env ~adv ()
      in
      let lhs = Cdse_secure.Forwarding.lhs setup in
      let rhs = Cdse_secure.Forwarding.rhs setup in
      let sigma = Scheduler.bounded 6 (Scheduler.uniform lhs) in
      let sigma' = Scheduler.bounded 12 (Cdse_secure.Forwarding.forward_sched setup sigma) in
      let d = Measure.exec_dist lhs sigma ~depth:6 in
      List.for_all
        (fun alpha ->
          let alpha' = Cdse_secure.Forwarding.forward_exec setup alpha in
          Rat.equal (Measure.cone_prob lhs sigma alpha) (Measure.cone_prob rhs sigma' alpha'))
        (Dist.support d))

let prop_emulation_reflexive_random =
  (* A ≤_SE A with the identity simulator, for random relay instances and
     message choices: the reflexivity every instantiation must satisfy. *)
  QCheck.Test.make ~count:10 ~name:"emulation reflexive on random relays"
    QCheck.(int_bound 1000)
    (fun seed ->
      let relay, _, env = relay_of_seed seed in
      let adv =
        Sfixtures.relay_adversary
          ~alphabet:(List.init (1 + (seed mod 3)) Fun.id)
          ~proto_name:"proto" ~rename:Fun.id "adv"
      in
      let v =
        Cdse_secure.Emulation.check
          ~schema:Schema.first_enabled
          ~insight_of:Insight.accept ~envs:[ env ] ~eps:Rat.zero ~q1:8 ~q2:8 ~depth:10
          ~adversaries:[ adv ] ~sim_for:Fun.id ~real:relay ~ideal:relay
      in
      v.Cdse_secure.Impl.holds)

(* ------------------------------------------------- union-free readers *)

(* An automaton with inputs too, over its own pool of names: at each
   state every name is, at random, absent, an input, an output or
   internal, and each enabled action moves to a random state. *)
let open_auto ~rng ~n_states ~n_actions name =
  let actions = List.init n_actions (fun i -> Action.make (Printf.sprintf "%s.b%d" name i)) in
  let state i = Value.tag name (Value.int i) in
  let plans =
    Array.init n_states (fun _ ->
        List.map (fun a -> (a, Rng.int rng 4, state (Rng.int rng n_states))) actions)
  in
  let plan_of = function
    | Value.Tag (n, Value.Int i) when String.equal n name && i >= 0 && i < n_states -> plans.(i)
    | _ -> []
  in
  let with_role q r =
    List.filter_map (fun (a, r', _) -> if r = r' then Some a else None) (plan_of q)
  in
  Psioa.make ~name ~start:(state 0)
    ~signature:(fun q -> Sigs.of_lists ~i:(with_role q 1) ~o:(with_role q 2) ~h:(with_role q 3) ())
    ~transition:(fun q act ->
      List.find_map
        (fun (a, r, q') -> if r > 0 && Action.equal a act then Some (Vdist.dirac q') else None)
        (plan_of q))

(* A random composition [ra ‖ (ob ‖ oc)] of a random automaton and two
   open ones over disjoint pools, every action of the three plus one that
   none has, and the prefixes of a random walk of 8 steps that fires any
   enabled action, inputs included. *)
let composition_arb =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let rng = Rng.make seed in
      let ra = Cdse_gen.Random_auto.make ~rng ~name:"ra" ~n_states:4 ~n_actions:3 () in
      let ob = open_auto ~rng ~n_states:3 ~n_actions:3 "ob" in
      let oc = open_auto ~rng ~n_states:3 ~n_actions:2 "oc" in
      let c = Compose.pair ra (Compose.parallel [ ob; oc ]) in
      let universe =
        Action.make "zz"
        :: List.init 3 (fun i -> Action.make (Printf.sprintf "ra.a%d" i))
        @ List.init 3 (fun i -> Action.make (Printf.sprintf "ob.b%d" i))
        @ List.init 2 (fun i -> Action.make (Printf.sprintf "oc.b%d" i))
      in
      let rec walk e n acc =
        let acts = Action_set.elements (Psioa.enabled c (Exec.lstate e)) in
        if n = 0 || acts = [] then e :: acc
        else
          let act = Rng.pick rng acts in
          let q' = Rng.pick rng (Dist.support (Psioa.step c (Exec.lstate e) act)) in
          walk (Exec.extend e act q') (n - 1) (e :: acc)
      in
      return (seed, c, universe, walk (Exec.init (Psioa.start c)) 8 []))
  in
  QCheck.make ~print:(fun (seed, _, _, _) -> Printf.sprintf "seed %d" seed) gen

let prop_trace_is_ext_filter =
  QCheck.Test.make ~count:100 ~name:"Exec.trace keeps the actions in Sigs.ext" composition_arb
    (fun (_, c, _, execs) ->
      List.for_all
        (fun e ->
          let _, rev_union_form =
            List.fold_left
              (fun (q, acc) (act, q') ->
                (q', if Action_set.mem act (Sigs.ext (Psioa.signature c q)) then act :: acc else acc))
              (Exec.fstate e, []) (Exec.steps e)
          in
          List.equal Action.equal
            (Exec.trace ~sig_of:(Psioa.signature c) e)
            (List.rev rev_union_form))
        execs)

(* The pick of each deterministic scheduler against the least action of
   the filtered union [Sigs.local]. The predicate of [first_enabled_where]
   rejects about a third of the actions, outputs and internal ones alike,
   and which third moves with the length. *)
let prop_picks_are_least_local =
  QCheck.Test.make ~count:100 ~name:"first-enabled picks = least of the filtered local pool"
    composition_arb (fun (_, c, universe, execs) ->
      let least p e =
        let local = Sigs.local (Psioa.signature c (Exec.lstate e)) in
        match Action_set.min_elt_opt (Action_set.filter p local) with
        | None -> Dist.empty ~compare:Action.compare
        | Some a -> Dist.dirac ~compare:Action.compare a
      in
      let pred e a = Action.hash a mod 3 <> Exec.length e mod 3 in
      let same (s : Scheduler.t) e expected = Dist.equal (s.Scheduler.choose e) expected in
      List.for_all
        (fun e ->
          same (Scheduler.first_enabled c) e (least (fun _ -> true) e)
          && same (Scheduler.first_enabled_where pred c) e (least (pred e) e)
          && List.for_all
               (fun a ->
                 same
                   (Scheduler.oblivious_local c (List.init (Exec.length e + 1) (fun _ -> a)))
                   e
                   (least (Action.equal a) e))
               universe)
        execs)

(* [AAct(q) = ext ∖ EAct(q)] against its earlier form
   [ext ∖ (EAct(q) ∩ ext)], for an EAct that also names actions outside
   the signature. *)
let prop_aact_formula =
  QCheck.Test.make ~count:100 ~name:"Structured.aact = ext minus EAct within ext" composition_arb
    (fun (_, c, universe, execs) ->
      let eact q =
        Action_set.of_list (List.filter (fun a -> (Action.hash a + Value.hash q) mod 2 = 0) universe)
      in
      let s = Cdse_secure.Structured.make c ~eact in
      List.for_all
        (fun e ->
          let q = Exec.lstate e in
          let ext = Sigs.ext (Psioa.signature c q) in
          Action_set.equal
            (Cdse_secure.Structured.aact s q)
            (Action_set.diff ext (Action_set.inter (eact q) ext)))
        execs)

let () =
  Alcotest.run "cdse_random"
    [ ( "psioa",
        [ qtest prop_random_valid;
          qtest prop_random_compose_valid;
          qtest prop_compose_signature_is_union;
          qtest prop_hide_preserves_measures;
          qtest prop_rename_roundtrip;
          qtest prop_rename_preserves_validity ] );
      ( "sched",
        [ qtest prop_exec_dist_proper;
          qtest prop_exec_dist_depth_bound;
          qtest prop_cone_matches_exec_dist;
          qtest prop_trace_dist_mass;
          qtest prop_memoize_same_measure ] );
      ("bounded", [ qtest prop_lemma_43_random; qtest prop_bound_monotone_in_b ]);
      ( "exec",
        [ qtest prop_exec_concat_prefix_laws; qtest prop_exec_trace_subsequence ] );
      ( "unions",
        [ qtest prop_trace_is_ext_filter;
          qtest prop_picks_are_least_local;
          qtest prop_aact_formula ] );
      ( "config",
        [ qtest prop_random_pca_constraints;
          qtest prop_random_pca_psioa_valid;
          qtest prop_random_pca_configs_reduced;
          qtest prop_random_pca_compose_closure;
          qtest prop_random_pca_hide_closure;
          qtest prop_random_pca_measure_proper;
          qtest prop_random_config_reduce_idempotent ] );
      ( "secure",
        [ qtest prop_d1_random_relays;
          qtest prop_forward_exec_cone_preserved;
          qtest prop_emulation_reflexive_random ] ) ]
