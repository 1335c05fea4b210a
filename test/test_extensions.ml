(* Tests for the extension layers: task-structured schedulers (the original
   task-PIOA scheduling the paper generalizes away from, Section 4.4),
   monotonicity w.r.t. creation and its failure under creation-sensitive
   scheduling (Section 4.4), and structured PCAs (Defs 4.20-4.23). *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_testkit

let act = Fixtures.act
let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

(* ------------------------------------------------------------------ Task *)

let pipeline =
  Compose.parallel
    [ Fixtures.sender ~channel_name:"ch" ~script:[ 0; 1 ] "s";
      Fixtures.channel "ch";
      Fixtures.receiver ~channel_name:"ch" "r" ]

let test_task_enabled_in () =
  let t = Task.task_of_name "ch.send" in
  let acts = Task.enabled_in pipeline (Psioa.start pipeline) t in
  Alcotest.(check int) "one send enabled" 1 (List.length acts);
  Alcotest.(check int) "recv task empty initially" 0
    (List.length (Task.enabled_in pipeline (Psioa.start pipeline) (Task.task_of_name "ch.recv")))

let test_task_schedule_drives_pipeline () =
  let schedule =
    List.map Task.task_of_name [ "ch.send"; "ch.recv"; "ch.send"; "ch.recv" ]
  in
  let sched = Task.scheduler pipeline schedule in
  let d = Measure.exec_dist pipeline sched ~depth:6 in
  Alcotest.(check int) "single deterministic run" 1 (Dist.size d);
  Alcotest.(check int) "all four tasks fired" 4 (Exec.length (List.hd (Dist.support d)))

let test_task_halts_on_ambiguity () =
  (* Two counters share the task name pattern? Use an automaton where a
     task has two enabled members: channel with two pending sends is not
     possible; instead two independent counters named the same task. *)
  let sys = Compose.pair (Fixtures.counter ~bound:1 "a") (Fixtures.counter ~bound:1 "b") in
  (* Task "a.inc" is unique: fires. A fabricated task matching nothing:
     halts. *)
  let ok = Task.scheduler sys [ Task.task_of_name "a.inc" ] in
  Alcotest.(check int) "fires unique" 1
    (Exec.length (List.hd (Dist.support (Measure.exec_dist sys ok ~depth:3))));
  let ghost = Task.scheduler sys [ Task.task_of_name "ghost" ] in
  Alcotest.(check int) "halts on empty task" 0
    (Exec.length (List.hd (Dist.support (Measure.exec_dist sys ghost ~depth:3))))

let test_task_ambiguous_halts_strict_fires_skipping () =
  (* An automaton with two enabled actions of the same name (different
     payloads): strict task scheduling halts, the skipping variant skips to
     the next task. *)
  let both = act ~payload:(Value.int 0) "go" and both1 = act ~payload:(Value.int 1) "go" in
  let other = act "solo" in
  let auto =
    Psioa.make ~name:"amb" ~start:(Value.int 0)
      ~signature:(fun q ->
        if Value.equal q (Value.int 0) then Sigs.of_lists ~o:[ both; both1; other ] ()
        else Sigs.empty)
      ~transition:(fun q a ->
        if Value.equal q (Value.int 0) && (Action.equal a both || Action.equal a both1 || Action.equal a other)
        then Some (Vdist.dirac (Value.int 1))
        else None)
  in
  let strict = Task.scheduler auto [ Task.task_of_name "go"; Task.task_of_name "solo" ] in
  Alcotest.(check int) "strict halts" 0
    (Exec.length (List.hd (Dist.support (Measure.exec_dist auto strict ~depth:3))));
  let lenient = Task.scheduler_skipping auto [ Task.task_of_name "go"; Task.task_of_name "solo" ] in
  let e = List.hd (Dist.support (Measure.exec_dist auto lenient ~depth:3)) in
  Alcotest.(check int) "skipping fires the next task" 1 (Exec.length e);
  Alcotest.(check string) "fired solo" "solo" (Action.name (List.hd (Exec.actions e)));
  Alcotest.(check bool) "ambiguity detected" false
    (Task.is_action_deterministic auto [ Task.task_of_name "go" ]);
  Alcotest.(check bool) "solo is deterministic" true
    (Task.is_action_deterministic auto [ Task.task_of_name "solo" ])

let test_task_schedules_are_oblivious () =
  (* A task schedule ignores states entirely: the same schedule applied to
     the dynamic subchain PCA is creation-oblivious — its choices do not
     depend on which subchains exist. *)
  let system = Cdse_dynamic.System.build ~n_subchains:2 ~tx_values:[ 1 ] ~max_total:4 () in
  let auto = Cdse_config.Pca.psioa system in
  let schedule = List.map Task.task_of_name [ "mgr.open"; "mgr.open" ] in
  let d = Measure.exec_dist auto (Task.scheduler auto schedule) ~depth:4 in
  Alcotest.(check int) "both opens fired" 2 (Exec.length (List.hd (Dist.support d)))

let test_task_matches_oblivious_on_deterministic_pipeline () =
  (* On an action-deterministic system, a task schedule and the oblivious
     script naming the same concrete actions induce the same measure. *)
  let acts =
    [ act ~payload:(Value.int 0) "ch.send"; act ~payload:(Value.int 0) "ch.recv";
      act ~payload:(Value.int 1) "ch.send"; act ~payload:(Value.int 1) "ch.recv" ]
  in
  let tasks = List.map (fun a -> Task.task_of_name (Action.name a)) acts in
  let d_task = Measure.exec_dist pipeline (Task.scheduler pipeline tasks) ~depth:6 in
  let d_obl = Measure.exec_dist pipeline (Scheduler.oblivious pipeline acts) ~depth:6 in
  Alcotest.(check bool) "same measure" true (Cdse_prob.Dist.equal d_task d_obl)

(* ---------------------------------------------- Monotonicity (Sec 4.4) *)

let x_slow = Cdse_gen.Monotone.pca_with Cdse_gen.Monotone.child_slow
let x_fast = Cdse_gen.Monotone.pca_with Cdse_gen.Monotone.child_fast

let oblivious_schema =
  Schema.oblivious_local ~scripts:[ Cdse_gen.Monotone.script_slow; Cdse_gen.Monotone.script_fast ]

let test_children_equivalent () =
  (* A ≤ B and B ≤ A through the accept insight under oblivious scripts. *)
  let env = Cdse_gen.Monotone.env in
  let scripts =
    Schema.oblivious_local
      ~scripts:[ [ act "kid.work"; act "kid.beep"; act "acc" ]; [ act "kid.beep"; act "acc" ] ]
  in
  let le a b =
    Impl.approx_le ~schema:scripts ~insight_of:Insight.accept ~envs:[ env ] ~eps:Rat.zero ~q1:4
      ~q2:4 ~depth:6 ~a ~b
  in
  let v1 = le Cdse_gen.Monotone.child_slow Cdse_gen.Monotone.child_fast in
  let v2 = le Cdse_gen.Monotone.child_fast Cdse_gen.Monotone.child_slow in
  Alcotest.(check bool) "A ≤ B" true v1.Impl.holds;
  Alcotest.(check bool) "B ≤ A" true v2.Impl.holds

let test_monotonic_under_creation_oblivious () =
  (* X_A ≤ X_B with the creation-oblivious (off-line script) schema. *)
  let v =
    Impl.approx_le ~schema:oblivious_schema ~insight_of:Insight.accept
      ~envs:[ Cdse_gen.Monotone.env ] ~eps:Rat.zero ~q1:4 ~q2:4 ~depth:6
      ~a:(Cdse_config.Pca.psioa x_slow) ~b:(Cdse_config.Pca.psioa x_fast)
  in
  Alcotest.(check bool) "monotonic: X_A ≤ X_B" true v.Impl.holds;
  Alcotest.check rat "distance 0" Rat.zero v.Impl.worst

let test_monotonicity_fails_creation_sensitive () =
  (* Under a creation-sensitive schema the same substitution is
     distinguished with advantage 1: the scheduler halts iff it sees child
     A's internal state. This is the Section 4.4 justification for
     creation-oblivious schemas. *)
  let schema = Schema.make ~name:"creation-sensitive" (fun comp -> [ Cdse_gen.Monotone.creation_sensitive comp ]) in
  let v =
    Impl.approx_le ~schema ~insight_of:Insight.accept ~envs:[ Cdse_gen.Monotone.env ]
      ~eps:Rat.zero ~q1:6 ~q2:6 ~depth:8
      ~a:(Cdse_config.Pca.psioa x_slow) ~b:(Cdse_config.Pca.psioa x_fast)
  in
  Alcotest.(check bool) "monotonicity broken" false v.Impl.holds;
  Alcotest.check rat "advantage 1" Rat.one v.Impl.worst

let test_monotonic_print_insight () =
  (* The paper singles out the print insight as the one suited to
     monotonicity w.r.t. creation: the environment's local view ignores
     the substituted component entirely, so X_A and X_B are
     indistinguishable under it with creation-oblivious scripts. *)
  let insight_of comp = Insight.print_left Cdse_gen.Monotone.env comp in
  let v =
    Impl.approx_le ~schema:oblivious_schema ~insight_of ~envs:[ Cdse_gen.Monotone.env ]
      ~eps:Rat.zero ~q1:4 ~q2:4 ~depth:6
      ~a:(Cdse_config.Pca.psioa x_slow) ~b:(Cdse_config.Pca.psioa x_fast)
  in
  Alcotest.(check bool) "monotone under print" true v.Impl.holds;
  Alcotest.check rat "distance 0" Rat.zero v.Impl.worst

(* ---------------------------------------------------- Structured PCA *)

let spca_of_system () =
  let system = Cdse_dynamic.System.build ~n_subchains:2 ~tx_values:[ 1 ] ~max_total:4 () in
  (* Environment interface: subchain tx/close and ledger reports; adversary
     interface: settlements and manager openings. *)
  let member_eact id q =
    let auto_sig =
      Psioa.signature (Registry.find (Cdse_config.Pca.registry system) id) q
    in
    let ext = Sigs.ext auto_sig in
    Action_set.filter
      (fun a ->
        let n = Action.name a in
        not (String.equal n "ledger.settle" || String.equal n "mgr.open"))
      ext
  in
  Spca.make ~pca:system ~member_eact

let test_spca_constraint () =
  (* 322 states within depth 5. *)
  match Spca.check_constraint ~max_states:400 ~max_depth:5 (spca_of_system ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_spca_constraint_truncated () =
  (* 322 states within depth 5: a cap of 200 cuts the sweep. *)
  match Spca.check_constraint ~max_states:200 ~max_depth:5 (spca_of_system ()) with
  | Ok () -> Alcotest.fail "a sweep cut at 200 states passed"
  | Error e ->
      Alcotest.(check bool) "names the automaton and the cap" true
        (Astring.String.is_infix ~affix:"subchain-system" e
        && Astring.String.is_infix ~affix:"200" e)

let test_spca_eact_tracks_config () =
  let s = spca_of_system () in
  let auto = Cdse_config.Pca.psioa (Spca.pca s) in
  let q0 = Psioa.start auto in
  (* Initially no subchains: EAct_X contains no tx actions. *)
  Alcotest.(check bool) "no tx initially" true
    (Action_set.for_all
       (fun a -> Action.name a <> "sub0.tx")
       (Spca.eact s q0));
  let q1 = List.hd (Dist.support (Psioa.step auto q0 (act "mgr.open"))) in
  Alcotest.(check bool) "tx appears after creation" true
    (Action_set.exists (fun a -> Action.name a = "sub0.tx") (Spca.eact s q1));
  (* mgr.open stays on the adversary side. *)
  Alcotest.(check bool) "open is AAct" true
    (Action_set.for_all (fun a -> Action.name a <> "mgr.open") (Spca.eact s q0))

let test_spca_compose_lemma_423 () =
  (* Lemma 4.23: the composition of structured PCAs satisfies the
     structured constraint. Compose the subchain system with an
     independent fragile-automaton PCA. *)
  let reg = Registry.of_list [ Fixtures.fragile "frag" ] in
  let other_pca =
    Cdse_config.Pca.make ~name:"other" ~registry:reg
      ~init:(Cdse_config.Config.start_of reg [ "frag" ])
      ()
  in
  let other =
    Spca.make ~pca:other_pca ~member_eact:(fun id q ->
        Sigs.ext (Psioa.signature (Registry.find reg id) q))
  in
  let composed = Spca.compose_pair (spca_of_system ()) other in
  (* 209 states within depth 4. *)
  (match Spca.check_constraint ~max_states:300 ~max_depth:4 composed with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The structured view is usable downstream. *)
  let st = Spca.to_structured composed in
  Alcotest.(check bool) "frag.go is EAct of the composite" true
    (Action_set.exists
       (fun a -> Action.name a = "frag.go")
       (Structured.eact st (Psioa.start (Structured.psioa st))))

let () =
  Alcotest.run "cdse_extensions"
    [ ( "task-scheduler",
        [ Alcotest.test_case "enabled_in" `Quick test_task_enabled_in;
          Alcotest.test_case "task schedule drives pipeline" `Quick test_task_schedule_drives_pipeline;
          Alcotest.test_case "unique fires / empty halts" `Quick test_task_halts_on_ambiguity;
          Alcotest.test_case "ambiguity: strict vs skipping" `Quick
            test_task_ambiguous_halts_strict_fires_skipping;
          Alcotest.test_case "task schedules are creation-oblivious" `Quick
            test_task_schedules_are_oblivious;
          Alcotest.test_case "task ≡ oblivious on deterministic systems" `Quick
            test_task_matches_oblivious_on_deterministic_pipeline ] );
      ( "monotonicity",
        [ Alcotest.test_case "children mutually implement" `Quick test_children_equivalent;
          Alcotest.test_case "monotone under creation-oblivious schema" `Quick
            test_monotonic_under_creation_oblivious;
          Alcotest.test_case "broken by creation-sensitive schema" `Quick
            test_monotonicity_fails_creation_sensitive;
          Alcotest.test_case "monotone under the print insight" `Quick
            test_monotonic_print_insight ] );
      ( "structured-pca",
        [ Alcotest.test_case "constraint (Def 4.22)" `Quick test_spca_constraint;
          Alcotest.test_case "constraint check refuses a truncated sweep" `Quick
            test_spca_constraint_truncated;
          Alcotest.test_case "EAct tracks configuration" `Quick test_spca_eact_tracks_config;
          Alcotest.test_case "closure under composition (Lemma 4.23)" `Quick
            test_spca_compose_lemma_423 ] ) ]
