(* Tests for the fault-injection layer (lib/fault): crash wrappers,
   adversarial channel interposers, the fault injector, and scheduler-level
   fault budgets — plus QCheck properties tying them back to Definition 2.1
   (state-dependent signatures) and trace equivalence at zero faults. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_fault
open Cdse_testkit

let act = Fixtures.act

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal
let qtest = QCheck_alcotest.to_alcotest
let ok_or_fail = function Ok () -> () | Error msg -> Alcotest.fail msg
let step1 a q x = List.hd (Dist.support (Psioa.step a q x))

(* ------------------------------------------------------------- crashes *)

let test_crash_stop_validates () =
  ok_or_fail (Psioa.validate (Fault.crash_stop (Fixtures.counter ~bound:2 "k")))

let test_crash_stop_dead_absorbs () =
  let c = Fixtures.counter ~bound:2 "k" in
  let w = Fault.crash_stop c in
  let crash = Fault.crash_action (Psioa.name c) in
  Alcotest.(check bool) "crash is an input" true
    (Action_set.mem crash (Sigs.input (Psioa.signature w (Psioa.start w))));
  Alcotest.(check bool) "local pool preserved" true
    (Action_set.equal
       (Sigs.local (Psioa.signature w (Psioa.start w)))
       (Sigs.local (Psioa.signature c (Psioa.start c))));
  let dead = step1 w (Psioa.start w) crash in
  Alcotest.(check bool) "dead: signature shrinks to inputs" true
    (Action_set.is_empty (Sigs.local (Psioa.signature w dead)));
  Alcotest.(check bool) "dead absorbs a repeated crash" true
    (Value.equal dead (step1 w dead crash))

let test_crash_zero_faults_trace_equiv () =
  (* With no crash injected the wrapper is trace-equivalent to the
     original: the crash input is free and never scheduled. *)
  let c = Fixtures.counter ~bound:3 "k" in
  let w = Fault.crash_stop c in
  let dc = Measure.trace_dist c (Scheduler.bounded 5 (Scheduler.uniform c)) ~depth:6 in
  let dw = Measure.trace_dist w (Scheduler.bounded 5 (Scheduler.uniform w)) ~depth:6 in
  Alcotest.check rat "statistical distance 0" Rat.zero (Stat.tv_distance dc dw)

let test_crash_recover_reboots () =
  let c = Fixtures.counter ~bound:1 "k" in
  let w = Fault.crash_recover c in
  let crash = Fault.crash_action "k" and recover = Fault.recover_action "k" in
  ok_or_fail (Psioa.validate w);
  let q = step1 w (Psioa.start w) crash in
  Alcotest.(check bool) "dead accepts recover" true (Psioa.is_enabled w q recover);
  let q = step1 w q recover in
  Alcotest.(check bool) "rebooted to start" true (Value.equal q (Psioa.start w));
  Alcotest.(check bool) "inc enabled again" true (Psioa.is_enabled w q (act "k.inc"))

(* ------------------------------------------------------------ channels *)

let test_lossy_channel_fifo_and_drop () =
  let a = act "m.a" and b = act "m.b" in
  let ch = Fault.lossy_channel ~cap:4 ~name:"net" ~acts:[ a; b ] () in
  ok_or_fail (Psioa.validate ~max_states:400 ch);
  let wa = Fault.wire ~channel:"net" a and wb = Fault.wire ~channel:"net" b in
  let q = step1 ch (step1 ch (Psioa.start ch) wa) wb in
  Alcotest.(check bool) "FIFO: head is a" true (Psioa.is_enabled ch q a);
  Alcotest.(check bool) "b not deliverable yet" false (Psioa.is_enabled ch q b);
  let q = step1 ch q (act "net.drop") in
  Alcotest.(check bool) "after drop, head is b" true (Psioa.is_enabled ch q b);
  let q = step1 ch q b in
  Alcotest.(check bool) "drained: no local actions" true
    (Action_set.is_empty (Sigs.local (Psioa.signature ch q)))

let test_dup_channel_duplicates () =
  let a = act "m.a" in
  let ch = Fault.dup_channel ~cap:3 ~name:"net" ~acts:[ a ] () in
  let q = step1 ch (Psioa.start ch) (Fault.wire ~channel:"net" a) in
  let q = step1 ch q (act "net.dup") in
  let q = step1 ch q a in
  Alcotest.(check bool) "second copy deliverable" true (Psioa.is_enabled ch q a);
  let q = step1 ch q a in
  Alcotest.(check bool) "buffer drained after two copies" false (Psioa.is_enabled ch q a)

let test_delay_channel_reorders () =
  let a = act "m.a" and b = act "m.b" in
  let ch = Fault.delay_channel ~cap:4 ~name:"net" ~acts:[ a; b ] () in
  let wa = Fault.wire ~channel:"net" a and wb = Fault.wire ~channel:"net" b in
  let q = step1 ch (step1 ch (Psioa.start ch) wa) wb in
  let q = step1 ch q (act "net.skip") in
  Alcotest.(check bool) "b overtook a" true (Psioa.is_enabled ch q b);
  let q = step1 ch q b in
  Alcotest.(check bool) "a still queued" true (Psioa.is_enabled ch q a)

let test_via_lossy_delivery_under_budget () =
  (* counter → lossy channel → acceptor. With a zero fault budget the
     lossy channel is a perfect FIFO (delivery w.p. 1, exactly); allowing
     one drop makes delivery a fair race between deliver and drop. *)
  let msg = act "k.inc" in
  let sender = Fixtures.counter ~bound:1 "k" in
  let receiver = Fixtures.acceptor ~watch:[ ("k.inc", None) ] "env" in
  let chan = Fault.lossy_channel ~cap:2 ~name:"net" ~acts:[ msg ] () in
  let sys = Fault.via ~channel:chan ~acts:[ msg ] sender receiver in
  let traces k =
    Measure.trace_dist sys
      (Fault.budget_sched k (Scheduler.bounded 8 (Scheduler.uniform sys)))
      ~depth:8
  in
  let delivered = [ msg; act "acc" ] in
  Alcotest.check rat "budget 0: delivered surely" Rat.one (Dist.prob (traces 0) delivered);
  Alcotest.check rat "budget 1: delivered w.p. 1/2" Rat.half (Dist.prob (traces 1) delivered)

(* ------------------------------------------------------------ injector *)

let test_injector_spends_faults () =
  let f0 = act "x.crash0" and f1 = act "x.crash1" in
  let inj = Fault.injector ~faults:[ f0; f1 ] () in
  ok_or_fail (Psioa.validate inj);
  let q = Psioa.start inj in
  Alcotest.(check bool) "both faults offered" true
    (Psioa.is_enabled inj q f0 && Psioa.is_enabled inj q f1);
  let q = step1 inj q f0 in
  Alcotest.(check bool) "f0 spent" false (Psioa.is_enabled inj q f0);
  Alcotest.(check bool) "f1 remains" true (Psioa.is_enabled inj q f1);
  let q = step1 inj q f1 in
  Alcotest.(check bool) "signature empties once spent" true
    (Action_set.is_empty (Sigs.all (Psioa.signature inj q)))

(* ------------------------------------------------------------- budgets *)

let test_default_is_fault () =
  List.iter
    (fun (name, expect) ->
      Alcotest.(check bool) name expect (Fault.default_is_fault (act name)))
    [ ("n.crash", true); ("n.crash3", true); ("n.recover", true); ("net.drop", true);
      ("net.dup", true); ("net.skip", true); ("n.vote1", false); ("dropout", false);
      ("skipper.go", false) ]

let test_is_fault_structural () =
  (* Regressions against the old substring heuristic: ordinary actions
     whose names merely contain a fault stem must not be budgeted. *)
  List.iter
    (fun (name, expect) ->
      Alcotest.(check bool) name expect (Fault.default_is_fault (act name)))
    [ ("report.crash_count", false); ("x.recovery", false); ("a.crash.b", false);
      ("backdrop", false); ("sys.drop2", false); ("n.recover7", true);
      ("deep.ns.crash12", true) ];
  (* A caller's own predicate overrides the structural default. *)
  Alcotest.(check bool) "~is_fault overrides the default" true
    (let e =
       Exec.extend (Exec.init (Value.int 0)) (act "report.crash_count") (Value.int 1)
     in
     Fault.count_faults ~is_fault:(fun a -> Action.name a = "report.crash_count") e = 1
     && Fault.count_faults e = 0);
  (* Kinds classify as named. *)
  List.iter
    (fun (name, kind) ->
      Alcotest.(check (option string)) name kind
        (Option.map Fault.kind_name (Fault.fault_kind (act name))))
    [ ("n.crash0", Some "crash"); ("n.recover", Some "recover"); ("net.drop", Some "drop");
      ("net.dup", Some "dup"); ("net.skip", Some "skip"); ("net.dup3", None);
      ("crash", None) ]

let test_budget_all_faults_halts () =
  (* When every enabled action past the budget is a fault, the budgeted
     scheduler halts deliberately: the post-budget choice is empty
     (deficit 1), and the measure engine books the remaining mass as
     halting mass — the execution measure stays proper, with all mass on
     executions carrying at most k faults. *)
  let inj = Fault.injector ~faults:[ act "v.crash0" ] ~each:3 () in
  let sched = Fault.budget_sched 1 (Scheduler.bounded 6 (Scheduler.uniform inj)) in
  let e0 = Exec.init (Psioa.start inj) in
  let q1 = step1 inj (Psioa.start inj) (act "v.crash0") in
  let e1 = Exec.extend e0 (act "v.crash0") q1 in
  let d1 = sched.Scheduler.choose e1 in
  Alcotest.(check int) "post-budget all-faults choice is empty" 0 (Dist.size d1);
  Alcotest.check rat "empty choice has deficit 1" Rat.one (Dist.deficit d1);
  let m = Measure.exec_dist inj sched ~depth:6 in
  Alcotest.check rat "measure stays proper" Rat.one (Dist.mass m);
  Alcotest.(check bool) "every execution spends at most the budget" true
    (List.for_all (fun (e, _) -> Fault.count_faults e <= 1) (Dist.items m))

let test_budget_sched_filters_after_k () =
  let inj = Fault.injector ~faults:[ act "v.crash0" ] ~each:2 () in
  let sys = Compose.pair inj (Fixtures.counter ~bound:3 "k") in
  let base = Scheduler.uniform sys in
  let sched = Fault.budget_sched 1 base in
  let e0 = Exec.init (Psioa.start sys) in
  Alcotest.(check bool) "fault schedulable within budget" true
    (Rat.sign (Dist.prob (sched.Scheduler.choose e0) (act "v.crash0")) > 0);
  let q1 = step1 sys (Psioa.start sys) (act "v.crash0") in
  let e1 = Exec.extend e0 (act "v.crash0") q1 in
  Alcotest.(check int) "one fault in history" 1 (Fault.count_faults e1);
  let d1 = sched.Scheduler.choose e1 in
  Alcotest.check rat "no fault mass after the budget" Rat.zero
    (Dist.prob d1 (act "v.crash0"));
  Alcotest.check rat "choice mass preserved (liveness)" (Dist.mass (base.Scheduler.choose e1))
    (Dist.mass d1)

(* ---------------------------------------------------------- compromise *)

(* Two tiny automata over the same state space (Int n, n < 2): the honest
   one steps with [m.step], the adversarial one with [m.evil] — so a
   takeover is observable in the trace while Definition 2.1 signatures
   stay well-formed in both worlds. *)
let honest_pair () =
  let step n = act ~payload:(Value.int n) "m.step" in
  let evil n = act ~payload:(Value.int n) "m.evil" in
  let mk name out =
    Psioa.make ~name ~start:(Value.int 0)
      ~signature:(fun q ->
        match q with
        | Value.Int n when n < 2 ->
            Sigs.make ~input:Action_set.empty
              ~output:(Action_set.of_list [ out n ])
              ~internal:Action_set.empty
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Int n when n < 2 && Action.equal a (out n) -> Some (Vdist.dirac (Value.int (n + 1)))
        | _ -> None)
  in
  (mk "m" step, mk "m.adv" evil)

let test_compromise_classification () =
  (* Structural, on the final dotted component — same regression style as
     the crash/recover stems: a merely-containing name must not count. *)
  List.iter
    (fun (name, kind) ->
      Alcotest.(check (option string)) name kind
        (Option.map Fault.kind_name (Fault.fault_kind (act name))))
    [ ("x.compromise", Some "compromise"); ("x.compromise3", Some "compromise");
      ("x.restore", Some "restore"); ("a.b.restore", Some "restore");
      ("sys.compromised", None); ("x.restore_key", None); ("cfg.restore_keys", None);
      ("compromise", None); ("restore", None) ];
  Alcotest.(check bool) "compromise counts against the default fault budget" true
    (Fault.default_is_fault (act "x.compromise"));
  Alcotest.(check bool) "is_compromise accepts indexed compromises" true
    (Fault.is_compromise (act "x.compromise7"));
  Alcotest.(check bool) "restores are not compromise-budgeted" false
    (Fault.is_compromise (act "x.restore"))

let test_compromise_takeover_and_restore () =
  let a, b = honest_pair () in
  let w = Fault.compromise ~adversarial:b a in
  ok_or_fail (Psioa.validate w);
  let comp = Fault.compromise_action "m" and rest = Fault.restore_action "m" in
  let q0 = Psioa.start w in
  Alcotest.(check bool) "live offers the compromise input" true
    (Psioa.is_enabled w q0 comp);
  Alcotest.(check bool) "live local pool is the honest one" true
    (Psioa.is_enabled w q0 (act ~payload:(Value.int 0) "m.step"));
  let qe = step1 w q0 comp in
  Alcotest.(check bool) "takeover state is flagged" true
    (Option.is_some (Fault.is_compromised qe));
  Alcotest.(check bool) "evil world runs the adversarial transitions" true
    (Psioa.is_enabled w qe (act ~payload:(Value.int 0) "m.evil"));
  Alcotest.(check bool) "honest step gone after takeover" false
    (Psioa.is_enabled w qe (act ~payload:(Value.int 0) "m.step"));
  let qe = step1 w qe (act ~payload:(Value.int 0) "m.evil") in
  let ql = step1 w qe rest in
  Alcotest.(check bool) "restore hands the current state back" true
    (Option.is_none (Fault.is_compromised ql)
    && Psioa.is_enabled w ql (act ~payload:(Value.int 1) "m.step"));
  (* Empty-signature states stay empty in both worlds, so configuration
     reduction and PCA destruction are unaffected by the wrapper. *)
  let qdone = step1 w ql (act ~payload:(Value.int 1) "m.step") in
  Alcotest.(check bool) "terminal state gains no compromise input" true
    (Sigs.is_empty (Psioa.signature w qdone))

let test_compromise_zero_budget_trace_equiv () =
  (* Never scheduled, the compromise input is free: the wrapper is
     trace-equivalent to the honest member. *)
  let a, b = honest_pair () in
  let w = Fault.compromise ~adversarial:b a in
  let da = Measure.trace_dist a (Scheduler.bounded 4 (Scheduler.uniform a)) ~depth:5 in
  let dw = Measure.trace_dist w (Scheduler.bounded 4 (Scheduler.uniform w)) ~depth:5 in
  Alcotest.check rat "statistical distance 0" Rat.zero (Stat.tv_distance da dw)

let test_budget_first_enabled () =
  let a, b = honest_pair () in
  let w = Fault.compromise ~adversarial:b a in
  let comp = Fault.compromise_action "m" in
  let inj = Fault.injector ~faults:[ comp ] ~each:2 () in
  let sys = Compose.pair inj w in
  let pick k e =
    let d = (Fault.budget_first_enabled ~is_fault:Fault.is_compromise k sys).Scheduler.choose e in
    Dist.support d
  in
  let e0 = Exec.init (Psioa.start sys) in
  (* min-enabled is the compromise ("m.compromise" < "m.step"); a spent
     budget folds the constraint into the pick instead of halting on a
     post-filtered dirac. *)
  Alcotest.(check bool) "k=1 schedules the takeover first" true
    (pick 1 e0 = [ comp ]);
  Alcotest.(check bool) "k=0 picks the best honest action instead" true
    (pick 0 e0 = [ act ~payload:(Value.int 0) "m.step" ]);
  let q1 = step1 sys (Psioa.start sys) comp in
  let e1 = Exec.extend e0 comp q1 in
  Alcotest.(check bool) "budget spent: second takeover excluded" true
    (pick 1 e1 = [ act ~payload:(Value.int 0) "m.evil" ]);
  let avoided =
    (Fault.budget_first_enabled ~is_fault:Fault.is_compromise
       ~avoid:(fun x -> String.equal (Action.name x) "m.step")
       0 sys)
      .Scheduler.choose e0
  in
  Alcotest.(check int) "avoid + spent budget leaves a deliberate halt" 0
    (Dist.size avoided);
  (* The packaged schema instantiates to exactly that scheduler. *)
  Alcotest.(check int) "compromise_budget yields one scheduler" 1
    (List.length (Schema.instantiate (Fault.compromise_budget 1) sys))

(* ----------------------------------------------------------- properties *)

let auto_arb =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 100_000 in
      let* n_states = int_range 2 6 in
      let* n_actions = int_range 1 3 in
      return
        (seed, Cdse_gen.Random_auto.make ~rng:(Rng.make seed) ~name:"fa" ~n_states ~n_actions ()))
  in
  QCheck.make ~print:(fun (seed, _) -> Printf.sprintf "seed %d" seed) gen

let prop_crash_stop_valid =
  QCheck.Test.make ~count:30 ~name:"crash_stop of a valid PSIOA is a valid PSIOA (Def 2.1)"
    auto_arb (fun (_, a) ->
      Result.is_ok (Psioa.validate ~max_states:400 (Fault.crash_stop a)))

let prop_crash_stop_signature_compatible =
  (* Live states keep exactly the original locally-controlled actions (so
     every composition partner of the original stays compatible with the
     wrapper) and only gain inputs; dead states have no locally-controlled
     actions at all. *)
  QCheck.Test.make ~count:30 ~name:"crash_stop preserves signature compatibility" auto_arb
    (fun (_, a) ->
      let w = Fault.crash_stop a in
      List.for_all
        (fun q ->
          match q with
          | Value.Tag ("fault-live", q0) ->
              let sw = Psioa.signature w q and sa = Psioa.signature a q0 in
              Action_set.equal (Sigs.local sw) (Sigs.local sa)
              && Action_set.subset (Sigs.input sa) (Sigs.input sw)
          | _ -> Action_set.is_empty (Sigs.local (Psioa.signature w q)))
        (Psioa.reachable ~max_states:400 w))

let prop_zero_fault_trace_equiv =
  QCheck.Test.make ~count:25 ~name:"zero faults: wrapper trace-equivalent to original" auto_arb
    (fun (_, a) ->
      let w = Fault.crash_stop a in
      let d1 = Measure.trace_dist a (Scheduler.bounded 4 (Scheduler.uniform a)) ~depth:5 in
      let d2 = Measure.trace_dist w (Scheduler.bounded 4 (Scheduler.uniform w)) ~depth:5 in
      Rat.is_zero (Stat.tv_distance d1 d2))

let prop_lossy_channel_input_enabled =
  QCheck.Test.make ~count:20 ~name:"lossy_channel is valid and never blocks its sender"
    QCheck.(int_range 1 3)
    (fun k ->
      let acts = List.init k (fun i -> act (Printf.sprintf "m%d" i)) in
      let ch = Fault.lossy_channel ~cap:2 ~name:"net" ~acts () in
      Result.is_ok (Psioa.validate ~max_states:400 ch)
      && List.for_all
           (fun q ->
             List.for_all
               (fun a -> Psioa.is_enabled ch q (Fault.wire ~channel:"net" a))
               acts)
           (Psioa.reachable ~max_states:400 ch))

let () =
  Alcotest.run "cdse_fault"
    [ ( "crash",
        [ Alcotest.test_case "crash_stop validates" `Quick test_crash_stop_validates;
          Alcotest.test_case "dead state absorbs inputs" `Quick test_crash_stop_dead_absorbs;
          Alcotest.test_case "zero faults ≡ original" `Quick test_crash_zero_faults_trace_equiv;
          Alcotest.test_case "crash_recover reboots" `Quick test_crash_recover_reboots ] );
      ( "channels",
        [ Alcotest.test_case "lossy: FIFO + drop" `Quick test_lossy_channel_fifo_and_drop;
          Alcotest.test_case "dup: duplicates head" `Quick test_dup_channel_duplicates;
          Alcotest.test_case "delay: reorders" `Quick test_delay_channel_reorders;
          Alcotest.test_case "via + budget: exact delivery probability" `Quick
            test_via_lossy_delivery_under_budget ] );
      ( "injector-budget",
        [ Alcotest.test_case "injector spends faults" `Quick test_injector_spends_faults;
          Alcotest.test_case "default_is_fault conventions" `Quick test_default_is_fault;
          Alcotest.test_case "structural classification regressions" `Quick
            test_is_fault_structural;
          Alcotest.test_case "budget filters and renormalizes" `Quick
            test_budget_sched_filters_after_k;
          Alcotest.test_case "all-faults choice halts deliberately" `Quick
            test_budget_all_faults_halts ] );
      ( "compromise",
        [ Alcotest.test_case "classification regressions" `Quick
            test_compromise_classification;
          Alcotest.test_case "takeover swaps worlds, restore hands back" `Quick
            test_compromise_takeover_and_restore;
          Alcotest.test_case "zero budget ≡ honest member" `Quick
            test_compromise_zero_budget_trace_equiv;
          Alcotest.test_case "budgeted first-enabled semantics" `Quick
            test_budget_first_enabled ] );
      ( "properties",
        [ qtest prop_crash_stop_valid;
          qtest prop_crash_stop_signature_compatible;
          qtest prop_zero_fault_trace_equiv;
          qtest prop_lossy_channel_input_enabled ] ) ]
