(* Tests for the additional protocol substrates: 2-of-2 XOR secret sharing
   and the family-indexed broadcast — including the family-level
   ≤_{neg,pt} relation (Definition 4.12) over a window of indices. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_crypto

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

(* ---------------------------------------------------------- secret share *)

let ss_real = Secret_share.real "ss"
let ss_real2 = Secret_share.real ~corrupt:`Second "ss"
let ss_leak = Secret_share.transparent "ss"
let ss_ideal = Secret_share.ideal "ss"
let ss_adv = Secret_share.adversary "ss"
let ss_sim = Secret_share.simulator "ss"

let ss_check ~real ~eps =
  Emulation.check ~schema:(Schema.deterministic ~bound:12) ~insight_of:Insight.accept
    ~envs:[ Secret_share.env_guess ~secret:1 "ss" ] ~eps ~q1:12 ~q2:12 ~depth:14
    ~adversaries:[ ss_adv ] ~sim_for:(fun _ -> ss_sim) ~real ~ideal:ss_ideal

let test_ss_validates () =
  List.iter
    (fun s -> match Structured.validate s with Ok () -> () | Error e -> Alcotest.fail e)
    [ ss_real; ss_real2; ss_leak; ss_ideal ]

let test_ss_adversary_valid () =
  match Adversary.check ~structured:ss_real ss_adv with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_ss_first_share_hides () =
  let v = ss_check ~real:ss_real ~eps:Rat.zero in
  Alcotest.(check bool) "share r reveals nothing" true v.Impl.holds;
  Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst

let test_ss_second_share_hides () =
  let v = ss_check ~real:ss_real2 ~eps:Rat.zero in
  Alcotest.(check bool) "share s⊕r reveals nothing" true v.Impl.holds

let test_ss_transparent_fails () =
  let v = ss_check ~real:ss_leak ~eps:Rat.zero in
  Alcotest.(check bool) "transparent dealer distinguished" false v.Impl.holds;
  Alcotest.check rat "advantage 1/2" Rat.half v.Impl.worst

(* ---------------------------------------------------------- session channel *)

let ses_depth r = 2 + (7 * r)

let ses_check ~rounds ~eps =
  Emulation.check
    ~schema:Schema.first_enabled
    ~insight_of:Insight.accept
    ~envs:[ Secure_channel.env_session ~rounds ~msg:1 "ses" ]
    ~eps ~q1:(ses_depth rounds) ~q2:(ses_depth rounds) ~depth:(ses_depth rounds + 2)
    ~adversaries:[ Secure_channel.adversary "ses" ]
    ~sim_for:(fun _ -> Secure_channel.simulator "ses")
    ~real:(Secure_channel.session_real ~rounds "ses")
    ~ideal:(Secure_channel.session_ideal ~rounds "ses")

let test_session_validates () =
  List.iter
    (fun r ->
      (match Structured.validate (Secure_channel.session_real ~rounds:r "ses") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "real r=%d: %s" r e);
      match Structured.validate (Secure_channel.session_ideal ~rounds:r "ses") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ideal r=%d: %s" r e)
    [ 1; 2; 3 ]

let test_session_adversary_valid () =
  match
    Adversary.check ~structured:(Secure_channel.session_real ~rounds:2 "ses")
      (Secure_channel.adversary "ses")
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_session_emulates_per_round () =
  (* Secrecy composes over time: slack exactly 0 at 1, 2 and 3 rounds. *)
  List.iter
    (fun rounds ->
      let v = ses_check ~rounds ~eps:Rat.zero in
      Alcotest.(check bool) (Printf.sprintf "rounds=%d" rounds) true v.Impl.holds;
      Alcotest.check rat "slack 0" Rat.zero v.Impl.worst)
    [ 1; 2; 3 ]

let test_session_guess_probability () =
  (* The environment's all-rounds guessing game succeeds with probability
     exactly 2^-rounds (1-bit messages) in the real world. *)
  let rounds = 3 in
  let sys =
    Compose.pair
      (Secure_channel.env_session ~rounds ~msg:1 "ses")
      (Emulation.hidden_system
         (Secure_channel.session_real ~rounds "ses")
         (Secure_channel.adversary "ses"))
  in
  let sched = Scheduler.bounded (ses_depth rounds) (Scheduler.first_enabled sys) in
  let d = Insight.apply (Insight.accept sys) sys sched ~depth:(ses_depth rounds + 2) in
  Alcotest.check rat "P(all guesses right) = 1/8" (Rat.of_ints 1 8)
    (Cdse_prob.Dist.prob d (Value.bool true))

(* ------------------------------------------------------------- broadcast *)

let bc_depth k = 4 + (3 * k)

let bc_check ~k ~eps =
  Emulation.check ~schema:(Schema.deterministic ~bound:(bc_depth k)) ~insight_of:Insight.accept
    ~envs:[ Broadcast.env_all_delivered ~k ~msg:1 "bc" ]
    ~eps ~q1:(bc_depth k) ~q2:(bc_depth k) ~depth:(bc_depth k + 2)
    ~adversaries:[ Broadcast.adversary ~k "bc" ]
    ~sim_for:(fun _ -> Broadcast.simulator ~k "bc")
    ~real:(Broadcast.real ~k "bc") ~ideal:(Broadcast.ideal ~k "bc")

let test_bc_validates () =
  List.iter
    (fun k ->
      match Structured.validate (Broadcast.real ~k "bc") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "real k=%d: %s" k e)
    [ 1; 2; 3 ];
  match Structured.validate (Broadcast.ideal ~k:2 "bc") with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_bc_adversary_valid () =
  List.iter
    (fun k ->
      match Adversary.check ~structured:(Broadcast.real ~k "bc") (Broadcast.adversary ~k "bc") with
      | Ok () -> ()
      | Error e -> Alcotest.failf "k=%d: %s" k e)
    [ 1; 2; 3 ]

let test_bc_emulates_per_k () =
  List.iter
    (fun k ->
      let v = bc_check ~k ~eps:Rat.zero in
      Alcotest.(check bool) (Printf.sprintf "k=%d emulates" k) true v.Impl.holds)
    [ 1; 2; 3 ]

let test_bc_family_neg_pt () =
  (* The family relation of Definition 4.12 on the hidden systems, with a
     negligible ε bound and polynomial scheduler bounds. *)
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
      ~eps:Cdse_bounded.Negligible.inv_pow2
      ~q1:(Cdse_util.Poly.of_coeffs [ 4; 3 ])
      ~q2:(Cdse_util.Poly.of_coeffs [ 4; 3 ])
      ~depth:(fun k -> bc_depth k + 2)
      ~a:hidden_real ~b:hidden_ideal
  in
  Alcotest.(check bool) "family ≤_{neg,pt}" true v.Impl.holds

let test_bc_family_poly_bounded () =
  (* Definition 4.8: the broadcast family has polynomially bounded
     description (bound grows polynomially in k). *)
  let fam k = Structured.psioa (Broadcast.real ~k:(max 1 k) "bc") in
  let ok =
    Cdse_bounded.Family.poly_bounded_window ~window:[ 1; 2; 3 ]
      ~poly:(Cdse_util.Poly.of_coeffs [ 4000; 2000; 500 ])
      ~max_states:150 ~max_depth:10 fam
  in
  Alcotest.(check bool) "poly-bounded family" true ok

let test_bc_delivery_reordering () =
  (* The adversary may release receivers in any order the scheduler picks;
     whatever the order, every receiver delivers the same message
     (agreement). *)
  let k = 3 in
  let sys =
    Compose.pair
      (Broadcast.env_all_delivered ~k ~msg:1 "bc")
      (Emulation.hidden_system (Broadcast.real ~k "bc") (Broadcast.adversary ~k "bc"))
  in
  let sched = Scheduler.bounded (bc_depth k) (Scheduler.uniform sys) in
  let d = Measure.exec_dist sys sched ~depth:(bc_depth k + 2) in
  Alcotest.(check bool) "several interleavings explored" true (Dist.size d > 1);
  List.iter
    (fun e ->
      List.iter
        (fun a ->
          if
            String.length (Action.name a) > 10
            && String.sub (Action.name a) 0 10 = "bc.deliver"
          then
            Alcotest.(check bool) "agreement: payload is the sent message" true
              (Value.equal (Action.payload a) (Value.int 1)))
        (Exec.actions e))
    (Dist.support d)

(* ------------------------------------------------------------ aggregation *)

let ag_depth p = 10 + (2 * p)

let ag_check ~parties ~env ~real ~eps =
  Emulation.check
    ~schema:Schema.first_enabled
    ~insight_of:Insight.accept ~envs:[ env ] ~eps ~q1:(ag_depth parties) ~q2:(ag_depth parties)
    ~depth:(ag_depth parties + 2)
    ~adversaries:[ Aggregation.adversary "ag" ]
    ~sim_for:(fun _ -> Aggregation.simulator "ag")
    ~real ~ideal:(Aggregation.ideal ~parties "ag")

let test_ag_validates () =
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          match Structured.validate ~max_states:800 s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "p=%d: %s" p e)
        [ Aggregation.real ~parties:p "ag"; Aggregation.unmasked ~parties:p "ag";
          Aggregation.ideal ~parties:p "ag" ])
    [ 1; 2; 3 ]

let test_ag_privacy_exact () =
  (* Privacy: the adversary's view of party 0's masked input is uniform;
     slack exactly 0 for 1..3 parties, any input vector. *)
  List.iter
    (fun (parties, inputs) ->
      let v =
        ag_check ~parties
          ~env:(Aggregation.env_guess ~parties ~inputs "ag")
          ~real:(Aggregation.real ~parties "ag") ~eps:Rat.zero
      in
      Alcotest.(check bool) (Printf.sprintf "p=%d private" parties) true v.Impl.holds;
      Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst)
    [ (1, [ 1 ]); (2, [ 1; 0 ]); (3, [ 1; 1; 0 ]) ]

let test_ag_correctness () =
  (* Correctness: the announced sum is ⊕xᵢ in both worlds, so the sum game
     is also at slack 0. *)
  let parties = 3 and inputs = [ 1; 0; 1 ] in
  let v =
    ag_check ~parties
      ~env:(Aggregation.env_sum ~parties ~inputs "ag")
      ~real:(Aggregation.real ~parties "ag") ~eps:Rat.zero
  in
  Alcotest.(check bool) "sum correct in both worlds" true v.Impl.holds

let test_ag_unmasked_fails () =
  let parties = 2 and inputs = [ 1; 0 ] in
  let v =
    ag_check ~parties
      ~env:(Aggregation.env_guess ~parties ~inputs "ag")
      ~real:(Aggregation.unmasked ~parties "ag") ~eps:Rat.zero
  in
  Alcotest.(check bool) "unmasked distinguished" false v.Impl.holds;
  Alcotest.check rat "advantage 1/2" Rat.half v.Impl.worst

let () =
  Alcotest.run "cdse_protocols"
    [ ( "secret-share",
        [ Alcotest.test_case "validates" `Quick test_ss_validates;
          Alcotest.test_case "adversary valid (Def 4.24)" `Quick test_ss_adversary_valid;
          Alcotest.test_case "first share hides (ε=0)" `Slow test_ss_first_share_hides;
          Alcotest.test_case "second share hides (ε=0)" `Slow test_ss_second_share_hides;
          Alcotest.test_case "transparent dealer fails" `Slow test_ss_transparent_fails ] );
      ( "session-channel",
        [ Alcotest.test_case "validates for 1..3 rounds" `Quick test_session_validates;
          Alcotest.test_case "adversary valid across rounds" `Quick test_session_adversary_valid;
          Alcotest.test_case "secrecy composes over rounds (ε=0)" `Slow test_session_emulates_per_round;
          Alcotest.test_case "guess probability exactly 2^-r" `Slow test_session_guess_probability ] );
      ( "aggregation",
        [ Alcotest.test_case "validates for 1..3 parties" `Quick test_ag_validates;
          Alcotest.test_case "privacy exact (ε=0)" `Slow test_ag_privacy_exact;
          Alcotest.test_case "correctness (sum = ⊕xᵢ)" `Slow test_ag_correctness;
          Alcotest.test_case "unmasked variant fails" `Slow test_ag_unmasked_fails ] );
      ( "broadcast",
        [ Alcotest.test_case "validates for k=1..3" `Quick test_bc_validates;
          Alcotest.test_case "adversary valid for k=1..3" `Quick test_bc_adversary_valid;
          Alcotest.test_case "emulates per k (ε=0)" `Slow test_bc_emulates_per_k;
          Alcotest.test_case "family ≤ neg,pt (Def 4.12)" `Slow test_bc_family_neg_pt;
          Alcotest.test_case "poly-bounded family (Def 4.8)" `Slow test_bc_family_poly_bounded;
          Alcotest.test_case "agreement under reordering" `Slow test_bc_delivery_reordering ] ) ]
