(* Dynamic subchains: run-time creation and destruction of automata — the
   PCA machinery (Definitions 2.9-2.19) on the blockchain-flavoured
   workload from the paper's introduction.

   A manager opens off-chain subchannels; each accumulates transactions,
   settles its balance to an on-chain ledger and destroys itself
   (configuration reduction, Definition 2.12).

   Run with:  dune exec examples/dynamic_subchain.exe *)

open Cdse

let () =
  let system = Dynamic_system.build ~n_subchains:3 ~tx_values:[ 1; 2 ] ~max_total:12 () in
  let auto = Pca.psioa system in

  Pretty.section "1. PCA constraints (Definition 2.16)";
  (* 500 states within depth 4. *)
  (match Pca.check_constraints ~max_states:500 ~max_depth:4 system with
  | Ok () -> print_endline "all four constraints hold on the explored states"
  | Error e -> failwith e);

  Pretty.section "2. A scripted run (creation and destruction)";
  let show q = Format.printf "    alive: [%s]  ledger total: %d@."
      (String.concat "; " (Pca.alive system q))
      (Dynamic_system.ledger_total system q)
  in
  let step q a =
    Format.printf "  %s@." (Action.to_string a);
    let q' = List.hd (Dist.support (Psioa.step auto q a)) in
    show q';
    q'
  in
  let q = Psioa.start auto in
  show q;
  let q = step q Manager.open_action in
  let q = step q (Subchain.tx 0 2) in
  let q = step q Manager.open_action in
  let q = step q (Subchain.tx 1 1) in
  let q = step q (Subchain.close 0) in
  let q = step q (Subchain.settle 0 2) in
  let q = step q (Subchain.close 1) in
  let q = step q (Subchain.settle 1 1) in
  ignore q;

  Pretty.section "3. Random churn";
  let stats = Dynamic_system.drive system ~rng:(Rng.make 2024) ~steps:500 in
  Pretty.table
    ~header:[ "steps"; "creations"; "destructions"; "max alive"; "ledger total" ]
    [ [ string_of_int stats.Dynamic_system.steps_taken;
        string_of_int stats.Dynamic_system.creations;
        string_of_int stats.Dynamic_system.destructions;
        string_of_int stats.Dynamic_system.max_alive;
        string_of_int stats.Dynamic_system.final_total ] ];

  Pretty.section "4. Creation-oblivious scheduling (Section 4.4)";
  (* An off-line script fixed in advance — it cannot observe which automata
     exist, so it is creation-oblivious by construction; disabled actions
     simply halt the run. *)
  let script =
    [ Manager.open_action; Subchain.tx 0 1; Subchain.close 0; Subchain.settle 0 1 ]
  in
  let sched = Scheduler.oblivious auto script in
  let d = Measure.exec_dist auto sched ~depth:6 in
  List.iter
    (fun (e, p) ->
      Format.printf "  p=%s: %d scripted steps executed@." (Rat.to_string p) (Exec.length e))
    (Dist.items d);
  print_endline "\ndynamic_subchain: done"
