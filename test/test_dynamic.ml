(* Tests for the dynamic subchain substrate: run-time creation by the
   manager, self-destruction on settlement, ledger accounting, and the
   random churn driver used by experiment E8. *)

open Cdse_prob
open Cdse_psioa
open Cdse_config
open Cdse_dynamic

let system = System.build ~n_subchains:2 ~tx_values:[ 1 ] ~max_total:6 ()

let step pca q a = List.hd (Dist.support (Psioa.step (Pca.psioa pca) q a))

let test_members_validate () =
  List.iter
    (fun auto ->
      match Psioa.validate ~max_states:200 ~max_depth:8 auto with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Psioa.name auto) e)
    [ Manager.make ~max_open:2 ();
      Ledger.make ~n_subchains:2 ~max_total:6 ();
      Subchain.make ~tx_values:[ 1 ] 0 ]

let test_lifecycle () =
  let q0 = Psioa.start (Pca.psioa system) in
  Alcotest.(check (list int)) "no subchains initially" [] (System.alive_subchains system q0);
  let q1 = step system q0 Manager.open_action in
  Alcotest.(check (list int)) "sub0 created" [ 0 ] (System.alive_subchains system q1);
  let q2 = step system q1 (Subchain.tx 0 1) in
  let q3 = step system q2 (Subchain.tx 0 1) in
  let q4 = step system q3 (Subchain.close 0) in
  Alcotest.(check (list int)) "still alive while closing" [ 0 ] (System.alive_subchains system q4);
  let q5 = step system q4 (Subchain.settle 0 2) in
  Alcotest.(check (list int)) "destroyed after settle" [] (System.alive_subchains system q5);
  Alcotest.(check int) "ledger credited" 2 (System.ledger_total system q5);
  (* The ledger announces the new total. *)
  Alcotest.(check bool) "report enabled" true
    (Psioa.is_enabled (Pca.psioa system) q5 (Action.make ~payload:(Value.int 2) "ledger.report"))

let test_two_subchains_interleaved () =
  let q = Psioa.start (Pca.psioa system) in
  let q = step system q Manager.open_action in
  let q = step system q Manager.open_action in
  Alcotest.(check (list int)) "two alive" [ 0; 1 ] (System.alive_subchains system q);
  let q = step system q (Subchain.tx 1 1) in
  let q = step system q (Subchain.close 1) in
  let q = step system q (Subchain.settle 1 1) in
  Alcotest.(check (list int)) "sub1 gone, sub0 remains" [ 0 ] (System.alive_subchains system q);
  Alcotest.(check int) "total 1" 1 (System.ledger_total system q)

let test_pca_constraints_hold () =
  (* 450 states within depth 5. *)
  match Pca.check_constraints ~max_states:500 ~max_depth:5 system with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_pca_constraints_truncated () =
  (* 450 states within depth 5: a cap of 200 cuts the sweep. *)
  match Pca.check_constraints ~max_states:200 ~max_depth:5 system with
  | Ok () -> Alcotest.fail "a sweep cut at 200 states passed"
  | Error e ->
      Alcotest.(check bool) "names the automaton and the cap" true
        (Astring.String.is_infix ~affix:"subchain-system" e
        && Astring.String.is_infix ~affix:"200" e)

let test_manager_budget () =
  let q = Psioa.start (Pca.psioa system) in
  let q = step system q Manager.open_action in
  let q = step system q Manager.open_action in
  Alcotest.(check bool) "budget exhausted" false
    (Psioa.is_enabled (Pca.psioa system) q Manager.open_action)

let test_drive_deterministic () =
  let run seed = System.drive system ~rng:(Rng.make seed) ~steps:100 in
  let a = run 11 and b = run 11 in
  Alcotest.(check int) "same creations" a.System.creations b.System.creations;
  Alcotest.(check int) "same total" a.System.final_total b.System.final_total

let test_drive_stats_sane () =
  let s = System.drive system ~rng:(Rng.make 5) ~steps:200 in
  Alcotest.(check bool) "steps ≤ requested" true (s.System.steps_taken <= 200);
  (* 2 subchains can be born; the manager can also die (counted as a
     destruction alongside subchain settlements). *)
  Alcotest.(check bool) "creations bounded by budget" true (s.System.creations <= 2);
  Alcotest.(check bool) "destructions ≤ creations + 1 (manager)" true
    (s.System.destructions <= s.System.creations + 1);
  Alcotest.(check bool) "max alive ≤ budget + static" true (s.System.max_alive <= 4)

let test_larger_system_churns () =
  let big = System.build ~n_subchains:4 ~tx_values:[ 1; 2 ] ~max_total:20 () in
  let s = System.drive big ~rng:(Rng.make 17) ~steps:400 in
  Alcotest.(check bool) "some creations happened" true (s.System.creations > 0);
  Alcotest.(check bool) "some destructions happened" true (s.System.destructions > 0)

(* ------------------------------------------------------------- committee *)

let n = "cmt"
let cmt = Committee.build ~max_validators:3 ~blocks:2 n
let cauto = Pca.psioa cmt
let cstep q a = List.hd (Dist.support (Psioa.step cauto q a))

let drive q acts = List.fold_left cstep q acts

let test_committee_constraints () =
  match Pca.check_constraints ~max_states:300 ~max_depth:5 cmt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_committee_commit_roundtrip () =
  let q = Psioa.start cauto in
  let q = drive q [ Committee.add n 0; Committee.add n 1 ] in
  Alcotest.(check (list int)) "two members" [ 0; 1 ] (Committee.members cmt q);
  Alcotest.(check int) "two validators alive" 3 (List.length (Pca.alive cmt q));
  let q = drive q [ Committee.submit n 1; Committee.propose n 1 ] in
  (* Votes in adversary order: 1 before 0. *)
  let q = drive q [ Committee.vote n 1 1; Committee.vote n 0 1 ] in
  Alcotest.(check bool) "commit enabled once all voted" true
    (Psioa.is_enabled cauto q (Committee.commit n 1));
  let q = cstep q (Committee.commit n 1) in
  Alcotest.(check (list int)) "block in log" [ 1 ] (Committee.committed cmt q)

let test_committee_no_early_commit () =
  (* Safety: whenever the commit action is enabled, every current member's
     vote has been collected — over all reachable states (including
     free-input paths where ghost proposals re-arm validators). *)
  List.iter
    (fun q ->
      List.iter
        (fun b ->
          if Psioa.is_enabled cauto q (Committee.commit n b) then
            match Committee.collecting cmt q with
            | None -> Alcotest.fail "commit enabled outside a collection phase"
            | Some (b', votes) ->
                Alcotest.(check int) "committing the collected block" b b';
                Alcotest.(check bool) "every member voted" true
                  (List.for_all (fun i -> List.mem i votes) (Committee.members cmt q)))
        [ 0; 1 ])
    (Psioa.reachable ~max_states:400 ~max_depth:6 cauto)

let test_committee_reconfiguration () =
  (* Retire a validator; the next block needs only the survivor's vote,
     and the retired automaton is destroyed. *)
  let q = Psioa.start cauto in
  let q = drive q [ Committee.add n 0; Committee.add n 1 ] in
  let q = drive q [ Committee.submit n 0; Committee.propose n 0;
                    Committee.vote n 0 0; Committee.vote n 1 0; Committee.commit n 0 ] in
  let q = cstep q (Committee.retire n 1) in
  Alcotest.(check (list int)) "member 1 retired" [ 0 ] (Committee.members cmt q);
  Alcotest.(check bool) "validator 1 destroyed" true
    (not (List.mem (Committee.validator_name n 1) (Pca.alive cmt q)));
  let q = drive q [ Committee.submit n 1; Committee.propose n 1; Committee.vote n 0 1 ] in
  let q = cstep q (Committee.commit n 1) in
  Alcotest.(check (list int)) "log grew" [ 0; 1 ] (Committee.committed cmt q)

let test_committee_agreement_any_interleaving () =
  (* Under the uniform scheduler (which interleaves adds/votes freely),
     every committed block equals a submitted block, in every execution.
     The environment submits via free-input scripts; close the system with
     an env automaton that submits block 1 once. *)
  let submitter =
    let s0 = Value.tag "sub" (Value.int 0) and s1 = Value.tag "sub" (Value.int 1) in
    Psioa.make ~name:"submitter" ~start:s0
      ~signature:(fun q ->
        if Value.equal q s0 then
          Sigs.make ~input:Action_set.empty
            ~output:(Action_set.of_list [ Committee.submit n 1 ])
            ~internal:Action_set.empty
        else Sigs.empty)
      ~transition:(fun q a ->
        if Value.equal q s0 && Action.equal a (Committee.submit n 1) then
          Some (Cdse_psioa.Vdist.dirac s1)
        else None)
  in
  let sys = Compose.pair submitter cauto in
  let sched = Cdse_sched.Scheduler.bounded 10 (Cdse_sched.Scheduler.uniform sys) in
  let d = Cdse_sched.Measure.exec_dist sys sched ~depth:12 in
  Alcotest.(check bool) "multiple interleavings" true (Dist.size d > 1);
  List.iter
    (fun e ->
      List.iter
        (fun a ->
          if String.equal (Action.name a) (n ^ ".commit") then
            Alcotest.(check bool) "agreement: only block 1 commits" true
              (Value.equal (Action.payload a) (Value.int 1)))
        (Exec.actions e))
    (Dist.support d)

let test_quorum_commits_despite_crash () =
  (* Crash tolerance: with quorum 2-of-3, a block commits even though one
     validator crashes mid-round. *)
  let qc = Committee.build ~max_validators:3 ~blocks:1 ~quorum:(`At_least 2) n in
  let qa = Pca.psioa qc in
  let s q a = List.hd (Dist.support (Psioa.step qa q a)) in
  let q = Psioa.start qa in
  let q = List.fold_left s q [ Committee.add n 0; Committee.add n 1; Committee.add n 2 ] in
  let q = List.fold_left s q [ Committee.submit n 0; Committee.propose n 0 ] in
  let q = s q (Committee.vote n 0 0) in
  (* Validator 1 crashes — the chair never learns. *)
  let q = s q (Committee.crash n 1) in
  Alcotest.(check bool) "val1 destroyed" true
    (not (List.mem (Committee.validator_name n 1) (Pca.alive qc q)));
  Alcotest.(check bool) "no commit yet at 1 vote" false
    (Psioa.is_enabled qa q (Committee.commit n 0));
  let q = s q (Committee.vote n 2 0) in
  Alcotest.(check bool) "commit at quorum" true (Psioa.is_enabled qa q (Committee.commit n 0));
  let q = s q (Committee.commit n 0) in
  Alcotest.(check (list int)) "committed" [ 0 ] (Committee.committed qc q)

let test_unanimous_blocks_on_crash () =
  (* The unanimous committee is NOT crash tolerant: after a mid-round
     crash the round can never complete (the chair waits for a vote that
     will never come). Liveness failure made visible. *)
  let uc = Committee.build ~max_validators:2 ~blocks:1 ~quorum:`All n in
  let ua = Pca.psioa uc in
  let s q a = List.hd (Dist.support (Psioa.step ua q a)) in
  let q = Psioa.start ua in
  let q = List.fold_left s q
      [ Committee.add n 0; Committee.add n 1; Committee.submit n 0; Committee.propose n 0;
        Committee.vote n 0 0; Committee.crash n 1 ] in
  (* No commit now, and no path to one in the CLOSED world: explore
     forward through locally-controlled actions only (the dead validator's
     vote is a free input that no component can produce). *)
  let rec explore seen frontier =
    match frontier with
    | [] -> seen
    | q' :: rest ->
        if List.exists (Value.equal q') seen then explore seen rest
        else
          let nexts =
            Action_set.fold
              (fun a acc -> Dist.support (Psioa.step ua q' a) @ acc)
              (Sigs.local (Psioa.signature ua q'))
              []
          in
          explore (q' :: seen) (nexts @ rest)
  in
  List.iter
    (fun q' ->
      Alcotest.(check bool) "commit unreachable" false
        (Psioa.is_enabled ua q' (Committee.commit n 0)))
    (explore [] [ q ])

let test_quorum_safety_reachable () =
  (* Safety for the threshold variant: commit enabled ⟹ ≥ t votes. *)
  let qc = Committee.build ~max_validators:2 ~blocks:1 ~quorum:(`At_least 2) n in
  let qa = Pca.psioa qc in
  List.iter
    (fun q ->
      if Psioa.is_enabled qa q (Committee.commit n 0) then
        match Committee.collecting qc q with
        | Some (_, votes) ->
            Alcotest.(check bool) "≥ 2 votes" true (List.length votes >= 2)
        | None -> Alcotest.fail "commit outside collection")
    (Psioa.reachable ~max_states:500 ~max_depth:8 qa)

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

let test_fault_budget_commit_prob () =
  (* Regression for the committee.mli liveness note, computed as an exact
     reachability probability: crashes become schedulable via
     Fault.injector, the total is capped by Fault.budget_sched, and the
     uniform scheduler adversarially interleaves crashes with the round.
     A 3-validator `At_least 2 committee commits with probability exactly
     1 under any single crash; two crashes can wedge it, and the
     unanimous committee wedges under even one. *)
  let commit_prob ~quorum ~budget =
    let cmt = Committee.build ~max_validators:3 ~blocks:1 ~quorum n in
    let auto = Pca.psioa cmt in
    let q =
      List.fold_left
        (fun q a -> List.hd (Dist.support (Psioa.step auto q a)))
        (Psioa.start auto)
        [ Committee.add n 0; Committee.add n 1; Committee.add n 2;
          Committee.submit n 0; Committee.propose n 0 ]
    in
    let tail =
      Psioa.make ~name:"round" ~start:q ~signature:(Psioa.signature auto)
        ~transition:(Psioa.transition auto)
    in
    let inj = Cdse_fault.Fault.injector ~faults:(List.init 3 (Committee.crash n)) () in
    let sys = Compose.pair inj tail in
    let sched =
      Cdse_fault.Fault.budget_sched budget
        (Cdse_sched.Scheduler.bounded 12 (Cdse_sched.Scheduler.uniform sys))
    in
    let pred = function
      | Value.Pair (_, qc) -> Committee.committed cmt qc = [ 0 ]
      | _ -> false
    in
    Cdse_sched.Measure.reach_prob sys sched ~depth:12 ~pred
  in
  Alcotest.check rat "quorum 2-of-3 tolerates one crash: P(commit) = 1 exactly" Rat.one
    (commit_prob ~quorum:(`At_least 2) ~budget:1);
  let p_two = commit_prob ~quorum:(`At_least 2) ~budget:2 in
  Alcotest.(check bool) "two crashes can wedge the quorum round" true
    (Rat.compare p_two Rat.one < 0 && Rat.sign p_two > 0);
  let p_all = commit_prob ~quorum:`All ~budget:1 in
  Alcotest.(check bool) "unanimity wedges under a single crash" true
    (Rat.compare p_all Rat.one < 0 && Rat.sign p_all > 0)

let test_committee_secure_emulation () =
  (* The dynamic committee PCA securely emulates the atomic-commit
     functionality (Definition 4.26 on a PCA): with the scheduling surface
     hidden, an environment that submits and awaits its commit cannot tell
     the vote-collecting protocol from the ideal one. The adversary side
     is trivial here: all AAct actions are locally controlled outputs, so
     a do-nothing adversary/simulator suffices. *)
  let real = Committee.structured (Committee.build ~max_validators:2 ~blocks:2 n) n in
  let ideal = Committee.ideal ~blocks:2 n in
  let nobody = Cdse_secure.Adversary.nobody () in
  let v =
    Cdse_secure.Emulation.check
      ~schema:Cdse_sched.Schema.first_enabled
      ~insight_of:Cdse_sched.Insight.accept
      ~envs:[ Committee.env_commit ~block:0 n ]
      ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14 ~adversaries:[ nobody ] ~sim_for:(fun _ -> nobody)
      ~real ~ideal
  in
  Alcotest.(check bool) "committee ≤_SE atomic commit" true v.Cdse_secure.Impl.holds;
  Alcotest.(check bool) "slack 0" true (Rat.is_zero v.Cdse_secure.Impl.worst)

let test_committee_structured_partitions () =
  let real = Committee.structured cmt n in
  let q0 = Psioa.start cauto in
  (* submit is EAct; add0 is AAct. *)
  Alcotest.(check bool) "submit is EAct" true
    (Action_set.mem (Committee.submit n 0) (Cdse_secure.Structured.eact real q0));
  Alcotest.(check bool) "add is AAct" true
    (Action_set.mem (Committee.add n 0) (Cdse_secure.Structured.aact real q0))

let () =
  Alcotest.run "cdse_dynamic"
    [ ( "subchain-system",
        [ Alcotest.test_case "members validate" `Quick test_members_validate;
          Alcotest.test_case "open/tx/close/settle lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "interleaved subchains" `Quick test_two_subchains_interleaved;
          Alcotest.test_case "PCA constraints (Def 2.16)" `Quick test_pca_constraints_hold;
          Alcotest.test_case "PCA constraints refuse a truncated sweep" `Quick
            test_pca_constraints_truncated;
          Alcotest.test_case "manager budget" `Quick test_manager_budget ] );
      ( "committee",
        [ Alcotest.test_case "PCA constraints" `Quick test_committee_constraints;
          Alcotest.test_case "commit round trip" `Quick test_committee_commit_roundtrip;
          Alcotest.test_case "safety: no early commit" `Quick test_committee_no_early_commit;
          Alcotest.test_case "dynamic reconfiguration" `Quick test_committee_reconfiguration;
          Alcotest.test_case "agreement under interleaving" `Slow test_committee_agreement_any_interleaving;
          Alcotest.test_case "structured partitions (Def 4.22)" `Quick test_committee_structured_partitions;
          Alcotest.test_case "≤_SE atomic commit (PCA instance)" `Slow test_committee_secure_emulation;
          Alcotest.test_case "quorum commits despite crash" `Quick test_quorum_commits_despite_crash;
          Alcotest.test_case "unanimity blocks on crash" `Quick test_unanimous_blocks_on_crash;
          Alcotest.test_case "quorum safety (≥ t votes)" `Quick test_quorum_safety_reachable ] );
      ( "fault-tolerance",
        [ Alcotest.test_case "commit probability vs crash budget (exact)" `Slow
            test_fault_budget_commit_prob ] );
      ( "churn-driver",
        [ Alcotest.test_case "deterministic under seed" `Quick test_drive_deterministic;
          Alcotest.test_case "stats sane" `Quick test_drive_stats_sane;
          Alcotest.test_case "larger system churns" `Quick test_larger_system_churns ] ) ]
