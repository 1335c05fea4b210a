(* Families and dynamicity: the k-indexed broadcast family under the
   ≤_{neg,pt} relation (Definitions 4.7-4.12), and the Section 4.4
   monotonicity-w.r.t.-creation story — substitution of equivalent
   dynamically-created components is sound exactly when the scheduler
   schema is creation-oblivious.

   Run with:  dune exec examples/families.exe *)

open Cdse

let () =
  Pretty.section "1. The broadcast family (k receivers)";
  let rows =
    List.map
      (fun k ->
        let depth = 6 + (3 * k) in
        let v =
          Emulation.check
            ~schema:Schema.first_enabled
            ~insight_of:Insight.accept
            ~envs:[ Broadcast.env_all_delivered ~k ~msg:1 "bc" ]
            ~eps:Rat.zero ~q1:depth ~q2:depth ~depth
            ~adversaries:[ Broadcast.adversary ~k "bc" ]
            ~sim_for:(fun _ -> Broadcast.simulator ~k "bc")
            ~real:(Broadcast.real ~k "bc")
            ~ideal:(Broadcast.ideal ~k "bc")
        in
        [ string_of_int k; string_of_bool v.Impl.holds; Rat.to_string v.Impl.worst ])
      [ 1; 2; 3 ]
  in
  Pretty.table ~header:[ "receivers k"; "real_k ≤_SE ideal_k"; "slack" ] rows;

  Pretty.section "2. Family-level ≤_{neg,pt} (Definition 4.12)";
  let hidden_real k =
    Emulation.hidden_system (Broadcast.real ~k:(max 1 k) "bc") (Broadcast.adversary ~k:(max 1 k) "bc")
  in
  let hidden_ideal k =
    Emulation.hidden_system (Broadcast.ideal ~k:(max 1 k) "bc") (Broadcast.simulator ~k:(max 1 k) "bc")
  in
  let v =
    Impl.le_neg_pt ~window:[ 1; 2; 3 ]
      ~schema:Schema.first_enabled
      ~insight_of:Insight.accept
      ~envs:(fun k -> [ Broadcast.env_all_delivered ~k:(max 1 k) ~msg:1 "bc" ])
      ~eps:Negligible.inv_pow2
      ~q1:(Poly.of_coeffs [ 4; 3 ])
      ~q2:(Poly.of_coeffs [ 4; 3 ])
      ~depth:(fun k -> 8 + (3 * k))
      ~a:hidden_real ~b:hidden_ideal
  in
  Format.printf "real ≤_(neg,pt) ideal over the window: %b (worst distance %s ≤ 2^-k)@."
    v.Impl.holds (Rat.to_string v.Impl.worst);

  Pretty.section "3. Monotonicity w.r.t. creation (Section 4.4)";
  let x_slow = Pca.psioa (Monotone.pca_with Monotone.child_slow) in
  let x_fast = Pca.psioa (Monotone.pca_with Monotone.child_fast) in
  let run label schema =
    let v =
      Impl.approx_le ~schema ~insight_of:Insight.accept ~envs:[ Monotone.env ] ~eps:Rat.zero
        ~q1:6 ~q2:6 ~depth:8 ~a:x_slow ~b:x_fast
    in
    Format.printf "%-42s X_A ≤ X_B: %-5b (distance %s)@." label v.Impl.holds
      (Rat.to_string v.Impl.worst)
  in
  run "creation-oblivious schema (scripts):"
    (Schema.oblivious_local ~scripts:[ Monotone.script_slow; Monotone.script_fast ]);
  run "creation-sensitive schema (peeks at kid):"
    (Schema.make ~name:"cs" (fun comp -> [ Monotone.creation_sensitive comp ]));
  print_endline
    "\nThe substituted children are equivalent, yet only the creation-oblivious\n\
     schema preserves the implementation relation across the substitution —\n\
     the Section 4.4 rationale for creation-oblivious scheduling.";
  print_endline "\nfamilies: done"
