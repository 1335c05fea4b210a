(* Mutation-testing harness (test/support/mutate.ml) and its use against
   the emulation checker (the campaigns of test/support/campaign.ml, which
   experiment MUT runs too): operators are exact and signature-legal,
   co-reachability is closed-world, and the checker kills every mutant of
   the OTP channel and of a committee validator — with the unmutated
   baselines passing, so a kill means discrimination, not vacuity. *)

open Cdse_prob
open Cdse_psioa
open Cdse_testkit

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

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

let test_drop_and_redirect_are_signature_legal () =
  Alcotest.(check bool) "every emitted mutant satisfies Def 2.1" true
    (List.for_all
       (fun m -> Result.is_ok (Psioa.validate ~max_states:2000 m.Mutate.mutant))
       (Campaign.otp ()).Campaign.mutants)

let test_co_reachable_is_closed_world () =
  (* The environment only ever sends message 1, so the m = 0 protocol
     sites must not be offered as mutation targets — those mutants would
     be unkillable. *)
  let states = (Campaign.otp ()).Campaign.sites in
  let zero_message_site = function
    | Value.Tag ("sc2", Value.Pair (_, Value.Int 0)) | Value.Tag ("sc4", Value.Int 0) -> true
    | _ -> false
  in
  Alcotest.(check bool) "no m=0 site is co-reachable" true
    (not (List.exists zero_message_site states));
  Alcotest.(check bool) "the m=1 ciphertext sites are" true
    (List.exists (function Value.Tag ("sc2", _) -> true | _ -> false) states)

(* ------------------------------------------------------------- sweeps *)

let test_otp_checker_kills_all () =
  let c = Campaign.otp () in
  Alcotest.(check bool) "baseline holds" true (Campaign.baseline c);
  let rep = Campaign.sweep c in
  Alcotest.(check int) "all four drops, three redirects, one bias" 8 rep.Mutate.total;
  Alcotest.(check (list string)) "no survivors" []
    (List.map (fun m -> m.Mutate.label) rep.Mutate.survivors)

let test_committee_checker_kills_all () =
  let c = Campaign.committee () in
  Alcotest.(check bool) "baseline holds" true (Campaign.baseline c);
  let rep = Campaign.sweep c in
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
