(* The mutation kill campaigns that experiment MUT and test_mutation run
   against the emulation checker: a member automaton, its mutants at
   co-reachable sites (Mutate), and the slack-0 ≤_SE check that must hold
   for the member and fail for every mutant. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
module Secure_channel = Cdse_crypto.Secure_channel
module Committee = Cdse_dynamic.Committee
module Fault = Cdse_fault.Fault

type t = {
  member : Psioa.t;
  sites : Value.t list;  (* the member's co-reachable states *)
  mutants : Mutate.mutation list;
  holds : Psioa.t -> bool;  (* the check, with [member] replaced by its argument *)
}

let make ~member ~sites ~holds =
  { member; sites; mutants = Mutate.mutants ~states:sites member; holds }

let baseline c = c.holds c.member
let sweep c = Mutate.sweep ~killed:(fun m -> not (c.holds m.Mutate.mutant)) c.mutants

(* OTP channel: mutate the real protocol member; the trace insight (not
   just acceptance) is what kills payload redirects on recv. *)
let otp () =
  let real = Secure_channel.real "n0" in
  let env = Secure_channel.env_guess ~msg:1 "n0" in
  let adv = Secure_channel.adversary "n0" in
  let ideal = Emulation.hidden_system (Secure_channel.ideal "n0") (Secure_channel.simulator "n0") in
  let proto = Structured.psioa real in
  let sites =
    Mutate.co_reachable
      ~project:(fun q -> Some (fst (Compose.proj_pair (snd (Compose.proj_pair q)))))
      (Compose.pair env (Compose.pair proto adv))
  in
  let bound = 16 in
  let holds member =
    let a = Emulation.hidden_system (Structured.make member ~eact:(Structured.eact real)) adv in
    (Impl.approx_le ~schema:Schema.first_enabled ~insight_of:Insight.trace ~envs:[ env ]
       ~eps:Rat.zero ~q1:bound ~q2:bound ~depth:(bound + 2) ~a ~b:ideal)
      .Impl.holds
  in
  make ~member:proto ~sites ~holds

(* Committee: mutate validator 0 of a 2-validator unanimous committee —
   both its vote sites are load-bearing, so a dropped or redirected vote
   must cost the commit. *)
let committee () =
  let env = Committee.env_commit ~block:0 "cmt" in
  let nobody = Adversary.nobody () in
  let ideal = Emulation.hidden_system (Committee.ideal ~blocks:1 "cmt") nobody in
  let site_pca = Committee.build ~max_validators:2 ~blocks:1 "cmt" in
  let sites =
    Mutate.co_reachable
      ~project:(fun q ->
        List.assoc_opt
          (Committee.validator_name "cmt" 0)
          (Cdse_config.Config.entries
             (Cdse_config.Pca.config_of site_pca (snd (Compose.proj_pair q)))))
      (Compose.pair env (Cdse_config.Pca.psioa site_pca))
  in
  let bound = 14 in
  let holds member =
    let real =
      Committee.structured
        (Committee.build ~max_validators:2 ~blocks:1
           ~wrap_validator:(fun i v -> if i = 0 then member else v)
           "cmt")
        "cmt"
    in
    (Impl.approx_le
       ~schema:(Fault.compromise_budget ~avoid:Cdse_gen.Sworkloads.is_retire 0)
       ~insight_of:Insight.accept ~envs:[ env ] ~eps:Rat.zero ~q1:bound ~q2:bound
       ~depth:(bound + 2)
       ~a:(Emulation.hidden_system real nobody)
       ~b:ideal)
      .Impl.holds
  in
  make ~member:(Committee.validator ~n:"cmt" ~blocks:1 0) ~sites ~holds
