(* Fault injection on the dynamic committee.

   Crashes in the committee PCA are free inputs — no standard scheduler
   ever fires them. The Fault layer turns them into first-class adversarial
   behaviour: Fault.crash_stop wraps any PSIOA with a crash action,
   Fault.injector makes the committee's crash inputs schedulable, and
   Fault.budget caps the total number of injected faults, so "commit
   probability under at most k crashes" is a single exact reach_prob query.

   Run with:  dune exec examples/faulty_committee.exe *)

open Cdse

let n = "cmt"

let () =
  Pretty.section "1. Crash-stop wrapping (any PSIOA)";
  (* A tiny counter, wrapped: the crash action is an extra input, the dead
     state absorbs everything and controls nothing. *)
  let counter = Workloads.counter ~bound:2 "k" in
  let wrapped = Fault.crash_stop counter in
  let crash = Fault.crash_action "k" in
  (match Psioa.validate wrapped with
  | Ok () -> Format.printf "crash_stop(counter) validates (Definition 2.1)@."
  | Error e -> failwith e);
  let dead = List.hd (Dist.support (Psioa.step wrapped (Psioa.start wrapped) crash)) in
  Format.printf "dead state controls %d actions (signature shrank to inputs)@."
    (Action_set.cardinal (Sigs.local (Psioa.signature wrapped dead)));
  (* With zero faults the wrapper is trace-equivalent to the original. *)
  let td a = Measure.trace_dist a (Scheduler.bounded 4 (Scheduler.uniform a)) ~depth:5 in
  Format.printf "trace distance to the unwrapped counter: %s@."
    (Rat.to_string (Stat.tv_distance (td counter) (td wrapped)));

  Pretty.section "2. Commit probability vs crash budget (exact rationals)";
  (* One commit round of a 3-validator committee. The injector offers the
     three crash inputs as outputs; budget_sched k caps how many the
     uniform scheduler may actually interleave into the round. *)
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
    let sys = Compose.pair (Fault.injector ~faults:(List.init 3 (Committee.crash n)) ()) tail in
    (* Fault.budget is the schema-level transformer (Definition 3.2); its
       instances are exactly budget_sched-wrapped schedulers. *)
    let schema =
      Fault.budget budget
        (Schema.make ~name:"uniform" (fun a -> [ Scheduler.bounded 12 (Scheduler.uniform a) ]))
    in
    let sched = List.hd (Schema.instantiate schema sys) in
    let pred = function
      | Value.Pair (_, qc) -> Committee.committed cmt qc = [ 0 ]
      | _ -> false
    in
    Measure.reach_prob sys sched ~depth:12 ~pred
  in
  Pretty.table
    ~header:[ "crash budget"; "P(commit) unanimity"; "P(commit) quorum 2-of-3" ]
    (List.map
       (fun budget ->
         [ string_of_int budget;
           Rat.to_string (commit_prob ~quorum:`All ~budget);
           Rat.to_string (commit_prob ~quorum:(`At_least 2) ~budget) ])
       [ 0; 1; 2 ]);
  print_endline
    "A 2-of-3 quorum commits with probability exactly 1 under any single crash;\n\
     unanimity already wedges (the chair waits forever for the dead validator's\n\
     vote — the liveness failure documented in committee.mli).";

  Pretty.section "3. Budgeted measures degrade gracefully";
  (* The same query under an engine budget: the measure truncates but
     accounts for every dropped cone — mass + deficit = 1 exactly. *)
  let cmt = Committee.build ~max_validators:3 ~blocks:1 ~quorum:(`At_least 2) n in
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
  let sys = Compose.pair (Fault.injector ~faults:(List.init 3 (Committee.crash n)) ()) tail in
  let sched = Fault.budget_sched 1 (Scheduler.bounded 12 (Scheduler.uniform sys)) in
  (match Measure.exec_dist_budgeted ~max_execs:40 sys sched ~depth:12 with
  | `Exact d -> Format.printf "exact: %d executions@." (Dist.size d)
  | `Truncated (d, lost) ->
      Format.printf "truncated to %d executions; kept mass %s + deficit %s = %s@."
        (Dist.size d)
        (Rat.to_string (Dist.mass d))
        (Rat.to_string lost)
        (Rat.to_string (Rat.add (Dist.mass d) lost)));
  print_endline "faulty_committee: done"
