(* Tests for the crypto substrate and the real/ideal protocol pairs: the
   one-time-pad secure channel (exact secrecy, ε = 0), its leaky
   falsification, the commit-reveal coin flip, and the Theorem 4.30
   composite-simulator construction on two channel instances. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_crypto

let qtest = QCheck_alcotest.to_alcotest
let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

(* ------------------------------------------------------------ primitives *)

let prop_xor_involution =
  QCheck.Test.make ~name:"otp: decrypt ∘ encrypt = id"
    QCheck.(triple (int_bound 255) (int_bound 255) (int_range 1 8))
    (fun (m, k, w) ->
      let m = m land ((1 lsl w) - 1) in
      Primitives.xor_decrypt ~key:k ~width:w (Primitives.xor_encrypt ~key:k ~width:w m) = m)

let prop_xor_pad_uniform =
  (* The OTP core fact: for fixed m, c = m ⊕ k is a bijection of the key
     space, so a uniform key gives a uniform ciphertext. *)
  QCheck.Test.make ~name:"otp: ciphertext bijective in key"
    QCheck.(pair (int_bound 7) (int_range 1 3))
    (fun (m, w) ->
      let m = m land ((1 lsl w) - 1) in
      let cts = List.init (1 lsl w) (fun k -> Primitives.xor_encrypt ~key:k ~width:w m) in
      List.sort_uniq Int.compare cts = List.init (1 lsl w) Fun.id)

let test_prg_deterministic () =
  Alcotest.(check (list int)) "same seed same stream"
    (Primitives.prg_expand ~seed:42 ~len:8)
    (Primitives.prg_expand ~seed:42 ~len:8);
  Alcotest.(check bool) "different seeds differ" true
    (Primitives.prg_expand ~seed:1 ~len:8 <> Primitives.prg_expand ~seed:2 ~len:8);
  Alcotest.(check int) "length" 8 (List.length (Primitives.prg_expand ~seed:1 ~len:8))

let test_commit_verify () =
  let c = Primitives.commit ~msg:1 ~nonce:7 in
  Alcotest.(check bool) "verifies" true (Primitives.commit_verify ~commitment:c ~msg:1 ~nonce:7);
  Alcotest.(check bool) "wrong msg fails" false
    (Primitives.commit_verify ~commitment:c ~msg:0 ~nonce:7);
  Alcotest.(check bool) "wrong nonce fails" false
    (Primitives.commit_verify ~commitment:c ~msg:1 ~nonce:8)

(* --------------------------------------------------------- secure channel *)

let sc_real = Secure_channel.real "sc"
let sc_leaky = Secure_channel.real_leaky "sc"
let sc_ideal = Secure_channel.ideal "sc"
let sc_adv = Secure_channel.adversary "sc"
let sc_sim = Secure_channel.simulator "sc"

let test_channel_validates () =
  List.iter
    (fun s ->
      match Structured.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Structured.name s) e)
    [ sc_real; sc_leaky; sc_ideal ]

let test_channel_adversary_valid () =
  (match Adversary.check ~structured:sc_real sc_adv with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "sim is adversary for ideal" true
    (Adversary.is_adversary ~structured:sc_ideal sc_sim)

(* Exact ε=0 claims quantify over the deterministic schema: a randomized
   σ needs a bespoke matching scheduler built from the simulation proof,
   which finite schema search cannot supply (see Schema.deterministic). *)
let se_check ~env ~real ~ideal ~adv ~sim ~eps =
  Emulation.check ~schema:(Schema.deterministic ~bound:12) ~insight_of:Insight.accept ~envs:[ env ]
    ~eps ~q1:12 ~q2:12 ~depth:14 ~adversaries:[ adv ] ~sim_for:(fun _ -> sim) ~real ~ideal

let test_channel_secrecy_exact () =
  (* The headline: OTP channel securely emulates the ideal functionality
     against the ciphertext-guessing adversary, with slack exactly 0 — the
     adversary's guess is uniform in both worlds. *)
  let v =
    se_check ~env:(Secure_channel.env_guess ~msg:1 "sc") ~real:sc_real ~ideal:sc_ideal
      ~adv:sc_adv ~sim:sc_sim ~eps:Rat.zero
  in
  Alcotest.(check bool) "real ≤_SE ideal (secrecy)" true v.Impl.holds;
  Alcotest.check rat "ε = 0 exactly" Rat.zero v.Impl.worst

let test_channel_completion_exact () =
  let v =
    se_check ~env:(Secure_channel.env_completion ~msg:1 "sc") ~real:sc_real ~ideal:sc_ideal
      ~adv:sc_adv ~sim:sc_sim ~eps:Rat.zero
  in
  Alcotest.(check bool) "functionality preserved" true v.Impl.holds

let test_channel_leaky_fails () =
  let v =
    se_check ~env:(Secure_channel.env_guess ~msg:1 "sc") ~real:sc_leaky ~ideal:sc_ideal
      ~adv:sc_adv ~sim:sc_sim ~eps:Rat.zero
  in
  Alcotest.(check bool) "leaky channel distinguished" false v.Impl.holds;
  (* Real: adversary's guess equals the plaintext always (acc prob 1).
     Ideal+sim: uniform fake (acc prob 1/2). Distance = 1/2. *)
  Alcotest.check rat "advantage 1/2" Rat.half v.Impl.worst

let test_channel_secrecy_width2 () =
  (* Wider message space: 2-bit OTP; the simulator's fake is uniform over
     4 ciphertexts; still exact. *)
  let real = Secure_channel.real ~width:2 "w2" and ideal = Secure_channel.ideal ~width:2 "w2" in
  let adv = Secure_channel.adversary ~width:2 "w2" and sim = Secure_channel.simulator ~width:2 "w2" in
  let v =
    se_check ~env:(Secure_channel.env_guess ~width:2 ~msg:3 "w2") ~real ~ideal ~adv ~sim
      ~eps:Rat.zero
  in
  Alcotest.(check bool) "2-bit channel exact" true v.Impl.holds

let test_channel_weak_eps_exact () =
  (* The weak pad (zero key never drawn): the plaintext-equal ciphertext
     never occurs, so the distance to the ideal world is EXACTLY 2^-width —
     the canonical ε > 0 instance of Definition 4.12. *)
  List.iter
    (fun width ->
      let real = Secure_channel.real_weak ~width "wk" and ideal = Secure_channel.ideal ~width "wk" in
      let adv = Secure_channel.adversary ~width "wk" and sim = Secure_channel.simulator ~width "wk" in
      let expected = Rat.pow Rat.half width in
      let check eps =
        Emulation.check ~schema:(Schema.deterministic ~bound:12) ~insight_of:Insight.accept
          ~envs:[ Secure_channel.env_guess ~width ~msg:1 "wk" ]
          ~eps ~q1:12 ~q2:12 ~depth:14 ~adversaries:[ adv ] ~sim_for:(fun _ -> sim) ~real ~ideal
      in
      let v0 = check Rat.zero in
      Alcotest.(check bool) (Printf.sprintf "w=%d fails at ε=0" width) false v0.Impl.holds;
      Alcotest.check rat (Printf.sprintf "w=%d distance exactly 2^-%d" width width) expected
        v0.Impl.worst;
      Alcotest.(check bool)
        (Printf.sprintf "w=%d holds at ε=2^-%d" width width)
        true (check expected).Impl.holds)
    [ 1; 2; 3 ]

let test_channel_weak_family_neg_pt () =
  (* Indexed by width: a family with ε(k) = 2^-k exactly — ≤_{neg,pt}
     holds with the canonical negligible bound but at no constant ε. *)
  let hidden_real k =
    let w = max 1 k in
    Emulation.hidden_system (Secure_channel.real_weak ~width:w "wk")
      (Secure_channel.adversary ~width:w "wk")
  in
  let hidden_ideal k =
    let w = max 1 k in
    Emulation.hidden_system (Secure_channel.ideal ~width:w "wk")
      (Secure_channel.simulator ~width:w "wk")
  in
  let run eps =
    Impl.le_neg_pt ~window:[ 1; 2; 3 ]
      ~schema:Schema.first_enabled
      ~insight_of:Insight.accept
      ~envs:(fun k -> [ Secure_channel.env_guess ~width:(max 1 k) ~msg:1 "wk" ])
      ~eps
      ~q1:(Cdse_util.Poly.of_coeffs [ 12 ])
      ~q2:(Cdse_util.Poly.of_coeffs [ 12 ])
      ~depth:(fun _ -> 14) ~a:hidden_real ~b:hidden_ideal
  in
  Alcotest.(check bool) "holds with ε(k) = 2^-k" true (run Cdse_bounded.Negligible.inv_pow2).Impl.holds;
  Alcotest.(check bool) "fails with ε = 0" false (run Cdse_bounded.Negligible.zero).Impl.holds

let test_channel_emulation_under_task_schedule () =
  (* The original task-PIOA setting: a task names an action CLASS (all
     payloads at once), so one off-line task schedule drives the protocol
     regardless of which key or ciphertext was sampled. The emulation
     claim holds at ε = 0 under the task-schedule schema — the paper's
     broader scheduler setting subsumes the task-scheduler one. *)
  let schedule_real =
    List.map Cdse_sched.Task.task_of_name
      [ "sc.keygen"; "sc.send"; "sc.ct"; "sc.deliver"; "sc.guess"; "sc.recv"; "acc" ]
  in
  let schedule_ideal =
    List.map Cdse_sched.Task.task_of_name
      [ "sc.send"; "sc.leak"; "sc.deliver"; "sc.guess"; "sc.recv"; "acc" ]
  in
  let schema =
    Schema.make ~name:"task" (fun a ->
        [ Cdse_sched.Task.scheduler_skipping a schedule_real;
          Cdse_sched.Task.scheduler_skipping a schedule_ideal ])
  in
  let v =
    Emulation.check ~schema ~insight_of:Insight.accept
      ~envs:[ Secure_channel.env_guess ~msg:1 "sc" ]
      ~eps:Rat.zero ~q1:10 ~q2:10 ~depth:12 ~adversaries:[ sc_adv ] ~sim_for:(fun _ -> sc_sim)
      ~real:sc_real ~ideal:sc_ideal
  in
  Alcotest.(check bool) "emulates under task schedules" true v.Impl.holds;
  Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst

let test_channel_d1_direct () =
  (* Lemma D.1 on the secure channel itself (not just the relay fixture):
     the dummy adversary inserted between the OTP protocol and its
     ciphertext-observing adversary changes nothing, exactly. *)
  let g = Dummy.prefix_renaming "g." in
  let adv_renamed = Secure_channel.adversary ~rename:(fun s -> "g." ^ s) "sc" in
  let setup =
    Forwarding.make_setup ~structured:sc_real ~g
      ~env:(Secure_channel.env_guess ~msg:1 "sc")
      ~adv:adv_renamed ()
  in
  let lhs = Forwarding.lhs setup in
  List.iter
    (fun sched ->
      let r = Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept ~sched ~q1:10 ~depth:10 in
      Alcotest.(check bool) "exact" true r.Forwarding.exact)
    [ Scheduler.first_enabled lhs; Scheduler.uniform lhs ]

(* ------------------------------------------------- Theorem 4.30 pipeline *)

let test_thm_430_composite_channels () =
  (* Two channel instances composed; the composite simulator is assembled
     from per-component dummy-simulators exactly as in the proof of
     Theorem 4.30, and the composite emulation still holds with ε = 0. *)
  let r1 = Secure_channel.real "n1" and r2 = Secure_channel.real "n2" in
  let i1 = Secure_channel.ideal "n1" and i2 = Secure_channel.ideal "n2" in
  let g1 = Dummy.prefix_renaming "g1." and g2 = Dummy.prefix_renaming "g2." in
  let real_hat = Structured.compose r1 r2 in
  let ideal_hat = Structured.compose i1 i2 in
  let adv_hat = Compose.pair (Secure_channel.adversary "n1") (Secure_channel.adversary "n2") in
  let components =
    [ { Emulation.real = r1; ideal = i1; g = g1; dsim = Secure_channel.dsim ~g:g1 "n1" };
      { Emulation.real = r2; ideal = i2; g = g2; dsim = Secure_channel.dsim ~g:g2 "n2" } ]
  in
  let sim_hat = Emulation.composite_simulator ~components ~adv:adv_hat in
  let env = Secure_channel.env_guess ~msg:1 "n1" in
  let v =
    Emulation.check ~schema:(Schema.deterministic ~bound:18) ~insight_of:Insight.accept ~envs:[ env ]
      ~eps:Rat.zero ~q1:18 ~q2:18 ~depth:20 ~adversaries:[ adv_hat ]
      ~sim_for:(fun _ -> sim_hat) ~real:real_hat ~ideal:ideal_hat
  in
  Alcotest.(check bool) "composite emulation holds" true v.Impl.holds;
  Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst

let test_thm_430_mixed_protocols () =
  (* Theorem 4.30 across DIFFERENT protocol types: an OTP channel composed
     with a 2-of-2 secret sharing, each with its own renaming and
     dummy-simulator, glued by the proof's composite simulator. *)
  let ch_r = Secure_channel.real "mx1" and ch_i = Secure_channel.ideal "mx1" in
  let sh_r = Secret_share.real "mx2" and sh_i = Secret_share.ideal "mx2" in
  let g1 = Dummy.prefix_renaming "g1." and g2 = Dummy.prefix_renaming "g2." in
  let real_hat = Structured.compose ch_r sh_r in
  let ideal_hat = Structured.compose ch_i sh_i in
  let adv_hat = Compose.pair (Secure_channel.adversary "mx1") (Secret_share.adversary "mx2") in
  let sim_hat =
    Emulation.composite_simulator
      ~components:
        [ { Emulation.real = ch_r; ideal = ch_i; g = g1; dsim = Secure_channel.dsim ~g:g1 "mx1" };
          { Emulation.real = sh_r; ideal = sh_i; g = g2; dsim = Secret_share.dsim ~g:g2 "mx2" } ]
      ~adv:adv_hat
  in
  (* Two distinguishing environments: one playing each component's game. *)
  let envs = [ Secure_channel.env_guess ~msg:1 "mx1"; Secret_share.env_guess ~secret:1 "mx2" ] in
  let v =
    Emulation.check
      ~schema:Schema.first_enabled
      ~insight_of:Insight.accept ~envs ~eps:Rat.zero ~q1:20 ~q2:20 ~depth:22
      ~adversaries:[ adv_hat ] ~sim_for:(fun _ -> sim_hat) ~real:real_hat ~ideal:ideal_hat
  in
  Alcotest.(check bool) "mixed composition emulates" true v.Impl.holds;
  Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst

(* -------------------------------------------------------------- coin flip *)

let cf_real = Coin_flip.real "cf"
let cf_cheat = Coin_flip.real_cheating "cf"
let cf_ideal = Coin_flip.ideal "cf"
let cf_adv = Coin_flip.adversary "cf"
let cf_sim = Coin_flip.simulator "cf"

let test_coinflip_validates () =
  List.iter
    (fun s ->
      match Structured.validate s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Structured.name s) e)
    [ cf_real; cf_cheat; cf_ideal ]

let test_coinflip_adversary_valid () =
  match Adversary.check ~structured:cf_real cf_adv with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let cf_check ~real ~eps =
  Emulation.check ~schema:(Schema.deterministic ~bound:14) ~insight_of:Insight.accept
    ~envs:[ Coin_flip.env_result "cf" ] ~eps ~q1:14 ~q2:14 ~depth:16 ~adversaries:[ cf_adv ]
    ~sim_for:(fun _ -> cf_sim) ~real ~ideal:cf_ideal

let test_coinflip_fair () =
  let v = cf_check ~real:cf_real ~eps:Rat.zero in
  Alcotest.(check bool) "commit-reveal emulates fair coin" true v.Impl.holds;
  Alcotest.check rat "ε = 0" Rat.zero v.Impl.worst

let test_coinflip_cheating_detected () =
  let v = cf_check ~real:cf_cheat ~eps:Rat.zero in
  Alcotest.(check bool) "biased protocol distinguished" false v.Impl.holds;
  (* Cheating real: result is always 0 (acc prob 1) vs ideal 1/2. *)
  Alcotest.check rat "bias 1/2" Rat.half v.Impl.worst

let test_coinflip_result_uniform () =
  (* Direct measure check: the real protocol's result distribution is
     exactly uniform under the deterministic driver. *)
  let sys =
    Compose.pair (Coin_flip.env_result "cf")
      (Hide.psioa_const
         (Compose.pair (Structured.psioa cf_real) cf_adv)
         (Structured.aact_universe cf_real))
  in
  let sched = Scheduler.bounded 14 (Scheduler.first_enabled sys) in
  let d = Insight.apply (Insight.accept sys) sys sched ~depth:16 in
  Alcotest.check rat "P(result=0) = 1/2" Rat.half (Dist.prob d (Value.bool true))

let () =
  Alcotest.run "cdse_crypto"
    [ ( "primitives",
        [ qtest prop_xor_involution;
          qtest prop_xor_pad_uniform;
          Alcotest.test_case "prg deterministic" `Quick test_prg_deterministic;
          Alcotest.test_case "commitment verify" `Quick test_commit_verify ] );
      ( "secure-channel",
        [ Alcotest.test_case "protocols validate" `Quick test_channel_validates;
          Alcotest.test_case "adversary/simulator valid (Def 4.24)" `Quick test_channel_adversary_valid;
          Alcotest.test_case "OTP secrecy exact (Def 4.26)" `Slow test_channel_secrecy_exact;
          Alcotest.test_case "functionality preserved" `Slow test_channel_completion_exact;
          Alcotest.test_case "leaky channel fails" `Slow test_channel_leaky_fails;
          Alcotest.test_case "2-bit width exact" `Slow test_channel_secrecy_width2;
          Alcotest.test_case "weak pad: ε = 2^-w exactly" `Slow test_channel_weak_eps_exact;
          Alcotest.test_case "weak pad family ≤ neg,pt" `Slow test_channel_weak_family_neg_pt;
          Alcotest.test_case "emulation under task schedules" `Slow
            test_channel_emulation_under_task_schedule;
          Alcotest.test_case "Lemma D.1 on the channel itself" `Slow test_channel_d1_direct;
          Alcotest.test_case "Thm 4.30 composite channels" `Slow test_thm_430_composite_channels;
          Alcotest.test_case "Thm 4.30 mixed protocols" `Slow test_thm_430_mixed_protocols ] );
      ( "coin-flip",
        [ Alcotest.test_case "protocols validate" `Quick test_coinflip_validates;
          Alcotest.test_case "adversary valid" `Quick test_coinflip_adversary_valid;
          Alcotest.test_case "fairness: emulates ideal coin" `Slow test_coinflip_fair;
          Alcotest.test_case "cheating detected" `Slow test_coinflip_cheating_detected;
          Alcotest.test_case "result exactly uniform" `Slow test_coinflip_result_uniform ] ) ]
