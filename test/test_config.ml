(* Tests for the configuration layer: configurations (Defs 2.9-2.12),
   preserving/intrinsic transitions (Defs 2.13-2.14), PCA construction and
   constraints (Def 2.16), PCA hiding (Def 2.17) and composition (Def 2.19). *)

open Cdse_prob
open Cdse_psioa
open Cdse_config
open Cdse_testkit

let act = Fixtures.act
let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

(* Shared registry: a spawner, three child counters, a fragile automaton,
   a coin. *)
let child i = Printf.sprintf "child%d" i

let registry =
  Registry.of_list
    (Fixtures.spawner ~max_children:3 "mgr"
    :: Fixtures.fragile "frag"
    :: Fixtures.coin "coin"
    :: List.init 3 (fun i -> Fixtures.counter ~bound:2 (child i)))

(* ---------------------------------------------------------------- Config *)

let test_config_make_sorted () =
  let c = Config.make [ ("b", Value.int 1); ("a", Value.int 0) ] in
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Config.auts c)

let test_config_duplicate () =
  Alcotest.check_raises "duplicate" (Config.Duplicate_automaton "a") (fun () ->
      ignore (Config.make [ ("a", Value.int 1); ("a", Value.int 0) ]))

let test_config_signature_def211 () =
  (* sender out ch.send; channel in ch.send: composed input set must drop
     the matched action. *)
  let reg = Registry.of_list [ Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s"; Fixtures.channel "ch" ] in
  let c = Config.start_of reg [ "s"; "ch" ] in
  let sg = Config.signature reg c in
  let send0 = act ~payload:(Value.int 0) "ch.send" in
  Alcotest.(check bool) "send is output" true (Sigs.classify send0 sg = `Output);
  Alcotest.(check bool) "send1 stays input" true
    (Sigs.classify (act ~payload:(Value.int 1) "ch.send") sg = `Input)

let test_config_reduce () =
  let dead = Value.tag "ctr" (Value.int 2) in
  let c = Config.make [ (child 0, dead); (child 1, Value.tag "ctr" (Value.int 0)) ] in
  let r = Config.reduce registry c in
  Alcotest.(check (list string)) "dead member dropped" [ child 1 ] (Config.auts r);
  Alcotest.(check bool) "idempotent" true (Config.equal r (Config.reduce registry r));
  Alcotest.(check bool) "was not reduced" false (Config.is_reduced registry c);
  Alcotest.(check bool) "now reduced" true (Config.is_reduced registry r)

let test_config_union_disjoint () =
  let a = Config.make [ ("x", Value.unit) ] and b = Config.make [ ("y", Value.unit) ] in
  Alcotest.(check (list string)) "union" [ "x"; "y" ] (Config.auts (Config.union a b));
  Alcotest.check_raises "clash" (Config.Duplicate_automaton "x") (fun () ->
      ignore (Config.union a a))

let test_config_value_roundtrip () =
  let c = Config.make [ ("a", Value.int 1); ("b", Value.pair Value.unit (Value.str "s")) ] in
  Alcotest.(check bool) "roundtrip" true (Config.equal c (Config.of_value (Config.to_value c)))

let test_config_compatible () =
  let reg = Registry.of_list [ Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s1";
                               Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s2" ] in
  let c = Config.start_of reg [ "s1"; "s2" ] in
  Alcotest.(check bool) "shared outputs incompatible" false (Config.compatible reg c)

(* ---------------------------------------------------------------- Ctrans *)

let test_preserving_keeps_auts () =
  let c = Config.start_of registry [ "mgr"; "coin" ] in
  match Ctrans.preserving registry c (act "coin.flip") with
  | None -> Alcotest.fail "flip should be enabled"
  | Some d ->
      Alcotest.(check int) "two outcomes" 2 (Dist.size d);
      List.iter
        (fun c' -> Alcotest.(check (list string)) "same automata" [ "coin"; "mgr" ] (Config.auts c'))
        (Dist.support d)

let test_preserving_disabled () =
  let c = Config.start_of registry [ "mgr" ] in
  Alcotest.(check bool) "absent action" true (Ctrans.preserving registry c (act "coin.flip") = None)

let test_intrinsic_creates () =
  let c = Config.start_of registry [ "mgr" ] in
  match Ctrans.intrinsic registry c (act "mgr.spawn") ~created:[ child 0 ] with
  | None -> Alcotest.fail "spawn enabled"
  | Some d ->
      let c' = List.hd (Dist.support d) in
      Alcotest.(check (list string)) "child created" [ child 0; "mgr" ] (Config.auts c');
      Alcotest.(check bool) "child at start state" true
        (Value.equal (Option.get (Config.state_of c' (child 0))) (Value.tag "ctr" (Value.int 0)))

let test_intrinsic_destroys_and_merges () =
  (* frag.go kills frag with prob 1/2: outcomes are {mgr} (reduced) and
     {frag, mgr}. With two fragiles f and frag... single frag: outcomes
     config-without-frag (1/2) and config-with-frag (1/2). *)
  let c = Config.start_of registry [ "mgr"; "frag" ] in
  match Ctrans.intrinsic registry c (act "frag.go") ~created:[] with
  | None -> Alcotest.fail "go enabled"
  | Some d ->
      Alcotest.(check int) "two reduced outcomes" 2 (Dist.size d);
      let without = Config.start_of registry [ "mgr" ] in
      Alcotest.check rat "death probability" Rat.half (Dist.prob d without)

let test_intrinsic_created_already_present () =
  (* φ ∩ A ≠ ∅ is ignored (no restart of existing members). *)
  let c = Config.start_of registry [ "mgr"; child 0 ] in
  match Ctrans.intrinsic registry c (act "mgr.spawn") ~created:[ child 0 ] with
  | None -> Alcotest.fail "spawn enabled"
  | Some d ->
      let c' = List.hd (Dist.support d) in
      Alcotest.(check int) "still two members" 2 (Config.cardinal c')

(* ------------------------------------------------------------------- PCA *)

(* Canonical dynamic PCA: mgr spawns child_k on its k-th spawn; children
   count to their bound and die. *)
let dyn_pca =
  let created c a =
    if String.equal (Action.name a) "mgr.spawn" then
      match Config.state_of c "mgr" with
      | Some (Value.Tag ("spawned", Value.Int k)) -> [ child k ]
      | _ -> []
    else []
  in
  Pca.make ~name:"dyn" ~registry ~init:(Config.start_of registry [ "mgr" ]) ~created ()

let run_actions pca acts =
  List.fold_left
    (fun q a -> List.hd (Dist.support (Psioa.step (Pca.psioa pca) q a)))
    (Psioa.start (Pca.psioa pca))
    acts

let test_pca_create_lifecycle () =
  let q = run_actions dyn_pca [ act "mgr.spawn" ] in
  Alcotest.(check (list string)) "child0 alive" [ child 0; "mgr" ] (Pca.alive dyn_pca q);
  let q = run_actions dyn_pca [ act "mgr.spawn"; act "child0.inc"; act "child0.inc" ] in
  Alcotest.(check (list string)) "child0 destroyed after bound" [ "mgr" ] (Pca.alive dyn_pca q);
  let q = run_actions dyn_pca [ act "mgr.spawn"; act "mgr.spawn" ] in
  Alcotest.(check (list string)) "two children" [ child 0; child 1; "mgr" ] (Pca.alive dyn_pca q)

let test_pca_signature_tracks_config () =
  let q0 = Psioa.start (Pca.psioa dyn_pca) in
  Alcotest.(check bool) "child action absent initially" false
    (Psioa.is_enabled (Pca.psioa dyn_pca) q0 (act "child0.inc"));
  let q1 = run_actions dyn_pca [ act "mgr.spawn" ] in
  Alcotest.(check bool) "child action appears" true
    (Psioa.is_enabled (Pca.psioa dyn_pca) q1 (act "child0.inc"))

let test_pca_constraints () =
  match Pca.check_constraints ~max_states:500 dyn_pca with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_pca_psioa_validates () =
  match Psioa.validate ~max_states:500 (Pca.psioa dyn_pca) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_pca_rejects_unreduced_init () =
  let dead = Value.tag "ctr" (Value.int 2) in
  let bad = Config.make [ (child 0, dead) ] in
  (try
     ignore (Pca.make ~name:"bad" ~registry ~init:bad ());
     Alcotest.fail "unreduced init accepted"
   with Invalid_argument _ -> ())

let test_pca_probabilistic_destruction () =
  let pca = Pca.make ~name:"fr" ~registry ~init:(Config.start_of registry [ "mgr"; "frag" ]) () in
  let d = Psioa.step (Pca.psioa pca) (Psioa.start (Pca.psioa pca)) (act "frag.go") in
  Alcotest.(check int) "two outcomes" 2 (Dist.size d);
  let q_dead = Config.to_value (Config.start_of registry [ "mgr" ]) in
  Alcotest.check rat "1/2 death" Rat.half (Dist.prob d q_dead)

let test_pca_hide () =
  let hidden_pca = Pca.hide dyn_pca (fun _ -> Action_set.of_list [ act "mgr.spawn" ]) in
  let q0 = Psioa.start (Pca.psioa hidden_pca) in
  Alcotest.(check bool) "spawn now internal" true
    (Sigs.classify (act "mgr.spawn") (Psioa.signature (Pca.psioa hidden_pca) q0) = `Internal);
  match Pca.check_constraints ~max_states:500 hidden_pca with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_pca_compose () =
  (* Two independent dynamic PCAs composed; constraint check (closure of PCA
     under composition) and disjoint-union configs. *)
  let reg2 =
    Registry.of_list
      (Fixtures.spawner ~max_children:2 "mgr2"
      :: List.init 2 (fun i -> Fixtures.counter ~bound:2 (Printf.sprintf "kid%d" i)))
  in
  let created2 c a =
    if String.equal (Action.name a) "mgr2.spawn" then
      match Config.state_of c "mgr2" with
      | Some (Value.Tag ("spawned", Value.Int k)) -> [ Printf.sprintf "kid%d" k ]
      | _ -> []
    else []
  in
  let pca2 = Pca.make ~name:"dyn2" ~registry:reg2 ~init:(Config.start_of reg2 [ "mgr2" ]) ~created:created2 () in
  let comp = Pca.compose_pair dyn_pca pca2 in
  (match Pca.check_constraints ~max_states:300 ~max_depth:4 comp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let q = Psioa.start (Pca.psioa comp) in
  Alcotest.(check (list string)) "union config" [ "mgr"; "mgr2" ] (Pca.alive comp q);
  (* Spawn on each side; both configs grow independently. *)
  let q = List.hd (Dist.support (Psioa.step (Pca.psioa comp) q (act "mgr.spawn"))) in
  let q = List.hd (Dist.support (Psioa.step (Pca.psioa comp) q (act "mgr2.spawn"))) in
  Alcotest.(check (list string)) "both children alive" [ child 0; "kid0"; "mgr"; "mgr2" ]
    (Pca.alive comp q)

let test_pca_compose_preserves_measures () =
  (* Probabilities multiply across composed PCAs: frag.go in the left PCA is
     independent of the right. *)
  let left = Pca.make ~name:"l" ~registry ~init:(Config.start_of registry [ "frag" ]) () in
  let reg_r = Registry.of_list [ Fixtures.coin "coin" ] in
  let right = Pca.make ~name:"r" ~registry:reg_r ~init:(Config.start_of reg_r [ "coin" ]) () in
  let comp = Pca.compose_pair left right in
  let d = Psioa.step (Pca.psioa comp) (Psioa.start (Pca.psioa comp)) (act "frag.go") in
  Alcotest.(check int) "2 outcomes (right side unmoved)" 2 (Dist.size d);
  List.iter (fun (_, p) -> Alcotest.check rat "1/2 each" Rat.half p) (Dist.items d)

(* PCA scheduled end-to-end: exact measure over a dynamic system. *)
let test_pca_scheduled_measure () =
  let pca = Pca.make ~name:"fr2" ~registry ~init:(Config.start_of registry [ "frag" ]) () in
  let auto = Pca.psioa pca in
  let sched = Cdse_sched.Scheduler.bounded 3 (Cdse_sched.Scheduler.first_enabled auto) in
  let d = Cdse_sched.Measure.exec_dist auto sched ~depth:5 in
  Alcotest.(check bool) "proper" true (Dist.is_proper d);
  (* Surviving all 3 scheduled steps has probability (1/2)^3; death is
     absorbing (empty config ⇒ no enabled actions). *)
  let alive_cfg = Config.to_value (Config.start_of registry [ "frag" ]) in
  let survive_3 =
    List.filter (fun (e, _) -> Exec.length e = 3 && Value.equal (Exec.lstate e) alive_cfg)
      (Dist.items d)
    |> List.map snd |> Rat.sum
  in
  Alcotest.check rat "(1/2)^3" (Rat.of_ints 1 8) survive_3;
  (* Death probability within the 3-step window: 1 - 1/8. *)
  let died =
    List.filter (fun (e, _) -> not (Value.equal (Exec.lstate e) alive_cfg)) (Dist.items d)
    |> List.map snd |> Rat.sum
  in
  Alcotest.check rat "7/8 died" (Rat.of_ints 7 8) died

let test_pca_parallel_three () =
  (* n-ary PCA composition: three disjoint single-member PCAs; constraints
     hold and the configuration is the three-way union. *)
  let mk prefix =
    let reg = Registry.of_list [ Fixtures.counter ~bound:1 (prefix ^ "k") ] in
    Pca.make ~name:prefix ~registry:reg ~init:(Config.start_of reg [ prefix ^ "k" ]) ()
  in
  let comp = Pca.parallel ~name:"trio" [ mk "a"; mk "b"; mk "c" ] in
  (match Pca.check_constraints ~max_states:100 comp with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "three members" [ "ak"; "bk"; "ck" ]
    (Pca.alive comp (Psioa.start (Pca.psioa comp)))

(* All three members take part in send(1): the PCA's transition reads
   each member's signature at its source state once, for both the
   configuration signature and the member's participation. [Pca.make]
   checked the initial configuration, so each member's last evaluation is
   already its start state and the step evaluates nothing; reading each
   member first at an equal but physically distinct copy of its start
   state makes the step evaluate each member exactly once. *)
let pca_member_evals ~primed () =
  let members =
    List.map Fixtures.counted
      [ Fixtures.sender ~channel_name:"ch" ~script:[ 1 ] "s";
        Fixtures.channel "ch";
        Fixtures.acceptor ~watch:[ ("ch.send", Some (Value.int 1)) ] "env" ]
  in
  let reg = Registry.of_list (List.map (fun (a, _, _) -> a) members) in
  let pca = Pca.make ~name:"trio" ~registry:reg ~init:(Config.start_of reg [ "s"; "ch"; "env" ]) () in
  List.iter
    (fun (a, _, reset) ->
      if primed then ignore (Psioa.signature a (Value.of_bits (Value.to_bits (Psioa.start a))));
      reset ())
    members;
  let x = Pca.psioa pca in
  ignore (Psioa.step x (Psioa.start x) (act ~payload:(Value.int 1) "ch.send"));
  List.iter
    (fun (a, evals, _) ->
      Alcotest.(check int) (Psioa.name a ^ " evaluations") (if primed then 1 else 0)
        (evals (Psioa.start a)))
    members

let test_pca_compose_shared_member_rejected () =
  (* Two PCAs owning the same automaton identifier cannot compose: their
     configurations would not be a disjoint union (Definition 2.19). *)
  let reg = Registry.of_list [ Fixtures.fragile "shared" ] in
  let mk name = Pca.make ~name ~registry:reg ~init:(Config.start_of reg [ "shared" ]) () in
  let comp = Pca.compose_pair (mk "p1") (mk "p2") in
  Alcotest.check_raises "duplicate member" (Config.Duplicate_automaton "shared") (fun () ->
      ignore (Pca.config_of comp (Psioa.start (Pca.psioa comp))))

let () =
  Alcotest.run "cdse_config"
    [ ( "config",
        [ Alcotest.test_case "make sorts" `Quick test_config_make_sorted;
          Alcotest.test_case "duplicates rejected" `Quick test_config_duplicate;
          Alcotest.test_case "intrinsic signature (Def 2.11)" `Quick test_config_signature_def211;
          Alcotest.test_case "reduce (Def 2.12)" `Quick test_config_reduce;
          Alcotest.test_case "union" `Quick test_config_union_disjoint;
          Alcotest.test_case "value roundtrip" `Quick test_config_value_roundtrip;
          Alcotest.test_case "compatibility (Def 2.10)" `Quick test_config_compatible ] );
      ( "ctrans",
        [ Alcotest.test_case "preserving (Def 2.13)" `Quick test_preserving_keeps_auts;
          Alcotest.test_case "preserving: absent action" `Quick test_preserving_disabled;
          Alcotest.test_case "intrinsic creates (Def 2.14)" `Quick test_intrinsic_creates;
          Alcotest.test_case "intrinsic destroys + merges" `Quick test_intrinsic_destroys_and_merges;
          Alcotest.test_case "created ∩ A ignored" `Quick test_intrinsic_created_already_present ] );
      ( "pca",
        [ Alcotest.test_case "create/destroy lifecycle" `Quick test_pca_create_lifecycle;
          Alcotest.test_case "signature tracks config" `Quick test_pca_signature_tracks_config;
          Alcotest.test_case "constraints (Def 2.16)" `Quick test_pca_constraints;
          Alcotest.test_case "underlying PSIOA validates" `Quick test_pca_psioa_validates;
          Alcotest.test_case "unreduced init rejected" `Quick test_pca_rejects_unreduced_init;
          Alcotest.test_case "probabilistic destruction" `Quick test_pca_probabilistic_destruction;
          Alcotest.test_case "hiding (Def 2.17)" `Quick test_pca_hide;
          Alcotest.test_case "composition (Def 2.19)" `Quick test_pca_compose;
          Alcotest.test_case "composition: product measure" `Quick test_pca_compose_preserves_measures;
          Alcotest.test_case "scheduled measure over dynamics" `Quick test_pca_scheduled_measure;
          Alcotest.test_case "shared member rejected (Def 2.19)" `Quick
            test_pca_compose_shared_member_rejected;
          Alcotest.test_case "n-ary composition" `Quick test_pca_parallel_three;
          Alcotest.test_case "one signature read per member per step" `Quick
            (pca_member_evals ~primed:false);
          Alcotest.test_case "one evaluation per member per step, primed elsewhere" `Quick
            (pca_member_evals ~primed:true) ] ) ]
