(* Mutation-testing harness (test/support/mutate.ml) and its use against
   the emulation checker: operators are exact and signature-legal,
   co-reachability is closed-world, and the checker kills every mutant of
   the OTP channel and of a committee validator — with the unmutated
   baselines passing, so a kill means discrimination, not vacuity. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_testkit

module Secure_channel = Cdse_crypto.Secure_channel
module Committee = Cdse_dynamic.Committee
module Fault = Cdse_fault.Fault

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

let det = Schema.make ~name:"det" (fun x -> [ Scheduler.first_enabled x ])

let nobody =
  Psioa.make ~name:"nobody" ~start:Value.unit
    ~signature:(fun _ -> Sigs.empty)
    ~transition:(fun _ _ -> None)

let is_retire a =
  let name = Action.name a in
  String.length name >= 10 && String.equal (String.sub name 0 10) "cmt.retire"

(* ----------------------------------------------------------- operators *)

(* Coin with a 2-point keygen-style internal step, for exercising bias. *)
let coin = Cdse_gen.Workloads.coin "c"

let test_bias_is_exact () =
  let q0 = Psioa.start coin in
  let flip =
    match Action_set.elements (Sigs.local (Psioa.signature coin q0)) with
    | [ a ] -> a
    | _ -> Alcotest.fail "coin: expected one local action at start"
  in
  let muts =
    List.filter (fun m -> m.Mutate.op = Mutate.Bias) (Mutate.mutants ~states:[ q0 ] coin)
  in
  match muts with
  | [ m ] ->
      let d = Psioa.step m.Mutate.mutant q0 flip in
      Alcotest.check rat "mass preserved exactly" Rat.one (Dist.mass d);
      let ps = List.map snd (Dist.items d) in
      Alcotest.(check (list string))
        "mass shifted by exactly p/2"
        [ "3/4"; "1/4" ]
        (List.map Rat.to_string ps)
  | _ -> Alcotest.fail "expected exactly one bias mutant at the flip site"

let otp_sites () =
  let proto = Structured.psioa (Secure_channel.real "n0") in
  let env = Secure_channel.env_guess ~msg:1 "n0" in
  let adv = Secure_channel.adversary "n0" in
  ( proto,
    Mutate.co_reachable
      ~project:(fun q -> Some (fst (Compose.proj_pair (snd (Compose.proj_pair q)))))
      (Compose.pair env (Compose.pair proto adv)) )

let test_drop_and_redirect_are_signature_legal () =
  let proto, states = otp_sites () in
  let muts = Mutate.mutants ~states proto in
  Alcotest.(check bool) "every emitted mutant satisfies Def 2.1" true
    (List.for_all
       (fun m -> Result.is_ok (Psioa.validate ~max_states:2000 m.Mutate.mutant))
       muts)

let test_co_reachable_is_closed_world () =
  (* The environment only ever sends message 1, so the m = 0 protocol
     sites must not be offered as mutation targets — those mutants would
     be unkillable. *)
  let _, states = otp_sites () in
  let zero_message_site = function
    | Value.Tag ("sc2", Value.Pair (_, Value.Int 0)) | Value.Tag ("sc4", Value.Int 0) -> true
    | _ -> false
  in
  Alcotest.(check bool) "no m=0 site is co-reachable" true
    (not (List.exists zero_message_site states));
  Alcotest.(check bool) "the m=1 ciphertext sites are" true
    (List.exists (function Value.Tag ("sc2", _) -> true | _ -> false) states)

(* ------------------------------------------------------------- sweeps *)

let otp_holds real_s =
  let env = Secure_channel.env_guess ~msg:1 "n0" in
  let bound = 16 in
  (Impl.approx_le ~schema:det ~insight_of:Insight.trace ~envs:[ env ] ~eps:Rat.zero
     ~q1:bound ~q2:bound ~depth:(bound + 2)
     ~a:(Emulation.hidden_system real_s (Secure_channel.adversary "n0"))
     ~b:(Emulation.hidden_system (Secure_channel.ideal "n0") (Secure_channel.simulator "n0")))
    .Impl.holds

let test_otp_checker_kills_all () =
  let real_s = Secure_channel.real "n0" in
  let proto, states = otp_sites () in
  let muts = Mutate.mutants ~states proto in
  Alcotest.(check bool) "baseline holds" true (otp_holds real_s);
  let rep =
    Mutate.sweep
      ~killed:(fun m ->
        not (otp_holds (Structured.make m.Mutate.mutant ~eact:(Structured.eact real_s))))
      muts
  in
  Alcotest.(check int) "all four drops, three redirects, one bias" 8 rep.Mutate.total;
  Alcotest.(check (list string)) "no survivors" []
    (List.map (fun m -> m.Mutate.label) rep.Mutate.survivors)

let committee_holds mutant =
  let bound = 14 in
  let real =
    Committee.structured
      (Committee.build ~max_validators:2 ~blocks:1
         ~wrap_validator:(fun i v -> if i = 0 then mutant else v)
         "cmt")
      "cmt"
  in
  (Impl.approx_le
     ~schema:(Fault.compromise_budget ~avoid:is_retire 0)
     ~insight_of:Insight.accept
     ~envs:[ Committee.env_commit ~block:0 "cmt" ]
     ~eps:Rat.zero ~q1:bound ~q2:bound ~depth:(bound + 2)
     ~a:(Emulation.hidden_system real nobody)
     ~b:(Emulation.hidden_system (Committee.ideal ~blocks:1 "cmt") nobody))
    .Impl.holds

let test_committee_checker_kills_all () =
  let v0 = Committee.validator ~n:"cmt" ~blocks:1 0 in
  let site_pca = Committee.build ~max_validators:2 ~blocks:1 "cmt" in
  let states =
    Mutate.co_reachable
      ~project:(fun q ->
        List.assoc_opt
          (Committee.validator_name "cmt" 0)
          (Cdse_config.Config.entries
             (Cdse_config.Pca.config_of site_pca (snd (Compose.proj_pair q)))))
      (Compose.pair (Committee.env_commit ~block:0 "cmt") (Cdse_config.Pca.psioa site_pca))
  in
  let muts = Mutate.mutants ~states v0 in
  Alcotest.(check bool) "baseline holds" true (committee_holds v0);
  let rep = Mutate.sweep ~killed:(fun m -> not (committee_holds m.Mutate.mutant)) muts in
  Alcotest.(check int) "dropped vote + redirected vote payload" 2 rep.Mutate.total;
  Alcotest.(check (list string)) "no survivors" []
    (List.map (fun m -> m.Mutate.label) rep.Mutate.survivors)

let () =
  Alcotest.run "cdse_mutation"
    [ ( "operators",
        [ Alcotest.test_case "bias shifts exactly p/2" `Quick test_bias_is_exact;
          Alcotest.test_case "mutants stay Def 2.1-legal" `Quick
            test_drop_and_redirect_are_signature_legal;
          Alcotest.test_case "co-reachability is closed-world" `Quick
            test_co_reachable_is_closed_world ] );
      ( "kill-sweeps",
        [ Alcotest.test_case "OTP channel: 8/8 killed" `Quick test_otp_checker_kills_all;
          Alcotest.test_case "committee validator: 2/2 killed" `Quick
            test_committee_checker_kills_all ] ) ]
