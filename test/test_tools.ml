(* Tests for the tooling layer: strong probabilistic bisimulation
   (partition refinement) and the DOT / table exporters. *)

open Cdse_prob
open Cdse_psioa
open Cdse_testkit

(* ------------------------------------------------------------------ Bisim *)

let test_bisim_reflexive () =
  let c = Fixtures.coin "c" in
  Alcotest.(check bool) "coin ~ coin" true (Bisim.bisimilar c c);
  let k = Fixtures.counter ~bound:3 "k" in
  Alcotest.(check bool) "counter ~ counter" true (Bisim.bisimilar k k)

let test_bisim_state_encoding_irrelevant () =
  (* The same behaviour with differently-encoded states is bisimilar:
     counter over ints vs counter over strings. *)
  let inc = Fixtures.act "k.inc" in
  let string_counter =
    let state k = Value.str (String.make k 'x') in
    Psioa.make ~name:"k2" ~start:(state 0)
      ~signature:(fun q ->
        match q with
        | Value.Str s when String.length s < 3 -> Sigs.of_lists ~o:[ inc ] ()
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Str s when String.length s < 3 && Action.equal a inc ->
            Some (Vdist.dirac (state (String.length s + 1)))
        | _ -> None)
  in
  Alcotest.(check bool) "int-counter ~ string-counter" true
    (Bisim.bisimilar (Fixtures.counter ~bound:3 "k") string_counter)

let test_bisim_detects_bias () =
  let fair = Fixtures.coin ~p:Rat.half "c" in
  let biased = Fixtures.coin ~p:(Rat.of_ints 1 3) "c" in
  Alcotest.(check bool) "fair !~ biased" false (Bisim.bisimilar fair biased)

let test_bisim_detects_label_mismatch () =
  let c = Fixtures.coin "c" and d = Fixtures.coin "d" in
  Alcotest.(check bool) "different external labels" false (Bisim.bisimilar c d);
  (* After renaming them to a common alphabet they are bisimilar. *)
  let rc = Rename.psioa c (Rename.on_names (fun n -> "x" ^ String.sub n 1 (String.length n - 1))) in
  let rd = Rename.psioa d (Rename.on_names (fun n -> "x" ^ String.sub n 1 (String.length n - 1))) in
  Alcotest.(check bool) "renamed to common alphabet" true (Bisim.bisimilar rc rd)

let test_bisim_internal_structure_visible () =
  (* Strong bisimulation counts internal steps: the slow child (τ then
     beep) is NOT strongly bisimilar to the fast child (beep). *)
  Alcotest.(check bool) "slow !~ fast (strong)" false
    (Bisim.bisimilar Cdse_gen.Monotone.child_slow Cdse_gen.Monotone.child_fast)

let test_bisim_congruence_instance () =
  (* Bisimilar components compose to bisimilar systems (tested on an
     instance): ctx || A ~ ctx || A' for A ~ A'. *)
  let inc = Fixtures.act "k.inc" in
  let variant =
    let state k = Value.pair (Value.int k) (Value.str "v") in
    Psioa.make ~name:"k" ~start:(state 0)
      ~signature:(fun q ->
        match q with
        | Value.Pair (Value.Int k, _) when k < 3 -> Sigs.of_lists ~o:[ inc ] ()
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Pair (Value.Int k, _) when k < 3 && Action.equal a inc ->
            Some (Vdist.dirac (state (k + 1)))
        | _ -> None)
  in
  let base = Fixtures.counter ~bound:3 "k" in
  Alcotest.(check bool) "A ~ A'" true (Bisim.bisimilar base variant);
  let ctx = Fixtures.coin "c" in
  Alcotest.(check bool) "ctx||A ~ ctx||A'" true
    (Bisim.bisimilar (Compose.pair ctx base) (Compose.pair ctx variant))

let test_bisim_implies_equal_fdist () =
  (* Sound proof method: on bisimilar automata, matching deterministic
     schedulers induce identical trace distributions. *)
  let a = Fixtures.coin "c" in
  let b =
    (* Same coin with an extra unreachable state in the encoding. *)
    Psioa.make ~name:"c" ~start:(Psioa.start a) ~signature:(Psioa.signature a)
      ~transition:(Psioa.transition a)
  in
  Alcotest.(check bool) "bisimilar" true (Bisim.bisimilar a b);
  let run x =
    Cdse_sched.Measure.trace_dist x
      (Cdse_sched.Scheduler.bounded 3 (Cdse_sched.Scheduler.first_enabled x))
      ~depth:5
  in
  Alcotest.(check bool) "equal trace dists" true (Dist.equal (run a) (run b))

let test_bisim_truncation_rejected () =
  let k = Fixtures.counter ~bound:100 "k" in
  Alcotest.check_raises "unsound truncation rejected"
    (Invalid_argument
       "Bisim: automaton \"k\" has more than 10 reachable states (max_states); \
        raise ~max_states \xE2\x80\x94 a partition of a truncated state space \
        would be unsound")
    (fun () -> ignore (Bisim.bisimilar ~max_states:10 k k))

let test_bisim_classes () =
  let c = Fixtures.coin "c" in
  let n_blocks, n_states = Bisim.classes c c in
  Alcotest.(check int) "6 states considered" 6 n_states;
  Alcotest.(check int) "3 classes (paired up)" 3 n_blocks

(* -------------------------------------------------------------------- Dsl *)

let dsl_coin =
  let open Dsl in
  make ~name:"c" ~start:(Value.str "init")
    [ state (Value.str "init")
        [ internal (Fixtures.act "c.flip")
            (Vdist.coin (Value.str "heads") (Value.str "tails")) ];
      state (Value.str "heads")
        [ output_to (Fixtures.act "c.heads") (Value.str "heads") ];
      state (Value.str "tails")
        [ output_to (Fixtures.act "c.tails") (Value.str "tails") ] ]

let test_dsl_builds_valid_automaton () =
  match Psioa.validate dsl_coin with Ok () -> () | Error e -> Alcotest.fail e

let test_dsl_bisimilar_to_functional () =
  (* The table-defined coin is bisimilar to the functionally-defined one. *)
  Alcotest.(check bool) "dsl ~ functional" true (Bisim.bisimilar dsl_coin (Fixtures.coin "c"))

let test_dsl_rejects_duplicates () =
  let open Dsl in
  (try
     ignore
       (make ~name:"bad" ~start:Value.unit
          [ state Value.unit
              [ output_to (Fixtures.act "a") Value.unit; output_to (Fixtures.act "a") Value.unit ] ]);
     Alcotest.fail "duplicate action accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (make ~name:"bad" ~start:Value.unit [ state Value.unit []; state Value.unit [] ]);
     Alcotest.fail "duplicate state accepted"
   with Invalid_argument _ -> ());
  try
    ignore (make ~name:"bad" ~start:(Value.int 9) [ state Value.unit [] ]);
    Alcotest.fail "missing start accepted"
  with Invalid_argument _ -> ()

let test_dsl_unlisted_state_empty () =
  let open Dsl in
  let a =
    make ~name:"d" ~start:Value.unit
      [ state Value.unit [ output_to (Fixtures.act "go") (Value.int 1) ] ]
  in
  Alcotest.(check bool) "unlisted state has empty signature" true
    (Sigs.is_empty (Psioa.signature a (Value.int 1)))

(* ---------------------------------------------------------------- Sampled *)

let test_sampled_matches_exact () =
  (* The empirical checker approximates the exact weak-pad distance 1/4
     within tolerance. *)
  let width = 2 in
  let real =
    Cdse_secure.Emulation.hidden_system
      (Cdse_crypto.Secure_channel.real_weak ~width "wk")
      (Cdse_crypto.Secure_channel.adversary ~width "wk")
  in
  let ideal =
    Cdse_secure.Emulation.hidden_system
      (Cdse_crypto.Secure_channel.ideal ~width "wk")
      (Cdse_crypto.Secure_channel.simulator ~width "wk")
  in
  let env = Cdse_crypto.Secure_channel.env_guess ~width ~msg:1 "wk" in
  let v =
    Cdse_secure.Sampled.approx_le_sampled ~schema:Cdse_sched.Schema.first_enabled
      ~insight_of:Cdse_sched.Insight.accept
      ~envs:[ env ] ~eps:0.25 ~tolerance:0.05 ~q1:12 ~q2:12 ~depth:14 ~samples:4000 ~seed:11
      ~a:real ~b:ideal
  in
  Alcotest.(check bool) "holds at ε=1/4 (+tol)" true v.Cdse_secure.Sampled.holds;
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.3f within 0.05 of exact 0.25" v.Cdse_secure.Sampled.worst)
    true
    (Float.abs (v.Cdse_secure.Sampled.worst -. 0.25) < 0.05)

let test_sampled_detects_leak () =
  let real =
    Cdse_secure.Emulation.hidden_system
      (Cdse_crypto.Secure_channel.real_leaky "sc")
      (Cdse_crypto.Secure_channel.adversary "sc")
  in
  let ideal =
    Cdse_secure.Emulation.hidden_system
      (Cdse_crypto.Secure_channel.ideal "sc")
      (Cdse_crypto.Secure_channel.simulator "sc")
  in
  let env = Cdse_crypto.Secure_channel.env_guess ~msg:1 "sc" in
  let v =
    Cdse_secure.Sampled.approx_le_sampled ~schema:Cdse_sched.Schema.first_enabled
      ~insight_of:Cdse_sched.Insight.accept
      ~envs:[ env ] ~eps:0.0 ~tolerance:0.1 ~q1:12 ~q2:12 ~depth:14 ~samples:2000 ~seed:3
      ~a:real ~b:ideal
  in
  Alcotest.(check bool) "leak detected by sampling" false v.Cdse_secure.Sampled.holds

(* ------------------------------------------------------------------- Dump *)

let test_dot_wellformed () =
  let dot = Dump.to_dot (Fixtures.coin "c") in
  Alcotest.(check bool) "digraph" true (Astring.String.is_prefix ~affix:"digraph" dot);
  Alcotest.(check bool) "has nodes" true (Astring.String.is_infix ~affix:"doublecircle" dot);
  Alcotest.(check bool) "closes" true (Astring.String.is_suffix ~affix:"}\n" dot);
  (* Probabilistic fan-out through a point node. *)
  Alcotest.(check bool) "fan-out point" true (Astring.String.is_infix ~affix:"shape=point" dot);
  Alcotest.(check bool) "probability label" true (Astring.String.is_infix ~affix:"1/2" dot)

let test_table_lists_transitions () =
  let t = Dump.to_table (Fixtures.counter ~bound:2 "k") in
  Alcotest.(check bool) "has inc" true (Astring.String.is_infix ~affix:"--k.inc-->" t);
  Alcotest.(check int) "two lines" 2
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' t)))

let () =
  Alcotest.run "cdse_tools"
    [ ( "bisim",
        [ Alcotest.test_case "reflexive" `Quick test_bisim_reflexive;
          Alcotest.test_case "state encoding irrelevant" `Quick test_bisim_state_encoding_irrelevant;
          Alcotest.test_case "detects bias" `Quick test_bisim_detects_bias;
          Alcotest.test_case "labels matter (rename to align)" `Quick test_bisim_detects_label_mismatch;
          Alcotest.test_case "strong: internal steps visible" `Quick test_bisim_internal_structure_visible;
          Alcotest.test_case "congruence (instance)" `Quick test_bisim_congruence_instance;
          Alcotest.test_case "sound for trace dists" `Quick test_bisim_implies_equal_fdist;
          Alcotest.test_case "truncation rejected" `Quick test_bisim_truncation_rejected;
          Alcotest.test_case "class counts" `Quick test_bisim_classes ] );
      ( "dsl",
        [ Alcotest.test_case "builds valid automaton" `Quick test_dsl_builds_valid_automaton;
          Alcotest.test_case "bisimilar to functional twin" `Quick test_dsl_bisimilar_to_functional;
          Alcotest.test_case "rejects malformed tables" `Quick test_dsl_rejects_duplicates;
          Alcotest.test_case "unlisted states are empty" `Quick test_dsl_unlisted_state_empty ] );
      ( "sampled",
        [ Alcotest.test_case "approximates exact ε" `Quick test_sampled_matches_exact;
          Alcotest.test_case "detects leaky channel" `Quick test_sampled_detects_leak ] );
      ( "dump",
        [ Alcotest.test_case "dot well-formed" `Quick test_dot_wellformed;
          Alcotest.test_case "table lists transitions" `Quick test_table_lists_transitions ] ) ]
