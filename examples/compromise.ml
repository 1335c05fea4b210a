(* Dynamic compromise: members that turn adversarial mid-run.

   A crash merely silences a member; a *compromise* swaps its transition
   function for an adversary-controlled one over the same state space —
   the threat model of the dynamic-compromise literature, where a
   protocol must keep emulating its ideal functionality as long as at
   most k of n members are taken over. Fault.compromise makes the
   takeover a library combinator, Fault.injector puts it under scheduler
   control, and Fault.compromise_budget meters takeovers k-of-n, so
   "does emulation survive k compromised members?" is one exact
   Emulation.check query.

   Run with:  dune exec examples/compromise.exe *)

open Cdse

let () =
  Pretty.section "1. Takeover and restore (any PSIOA)";
  (* A tiny counter taken over mid-count. The adversarial automaton is an
     arbitrary reinterpretation of the member over the same state space;
     here it leaks the current count instead of incrementing it. *)
  let counter = Workloads.counter ~bound:2 "k" in
  let leak k = Action.make ~payload:(Value.int k) "k.leak" in
  let leaky =
    Psioa.make ~name:"k.adv" ~start:(Psioa.start counter)
      ~signature:(fun q ->
        match q with
        | Value.Tag ("ctr", Value.Int k) when k < 2 ->
            Sigs.make ~input:Action_set.empty
              ~output:(Action_set.of_list [ leak k ])
              ~internal:Action_set.empty
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Tag ("ctr", Value.Int k) when k < 2 && Action.equal a (leak k) ->
            Some (Vdist.dirac q)
        | _ -> None)
  in
  let wrapped = Fault.compromise ~adversarial:leaky counter in
  (match Psioa.validate wrapped with
  | Ok () -> Format.printf "compromise(counter) validates (Definition 2.1)@."
  | Error e -> failwith e);
  let step1 q a = List.hd (Dist.support (Psioa.step wrapped q a)) in
  let q = step1 (Psioa.start wrapped) (Action.make "k.inc") in
  let q = step1 q (Fault.compromise_action "k") in
  Format.printf "after the takeover: compromised=%b, k.leak enabled=%b, k.inc enabled=%b@."
    (Option.is_some (Fault.is_compromised q))
    (Psioa.is_enabled wrapped q (leak 1))
    (Psioa.is_enabled wrapped q (Action.make "k.inc"));
  let q = step1 q (Fault.restore_action "k") in
  Format.printf "after restore: counter resumes from its current state (%s enabled)@."
    (if Psioa.is_enabled wrapped q (Action.make "k.inc") then "k.inc" else "nothing");
  (* With zero takeovers injected the wrapper is trace-equivalent. *)
  let td a = Measure.trace_dist a (Scheduler.bounded 4 (Scheduler.uniform a)) ~depth:5 in
  Format.printf "trace distance to the unwrapped counter: %s@."
    (Rat.to_string (Stat.tv_distance (td counter) (td wrapped)));
  (* Adversary.silent_takeover is the degenerate payload: it keeps only
     the member's inputs. A counter has none, so the silenced member's
     signature empties — it is destroyed (no restore is ever offered, and
     PCA configuration reduction may remove it), exactly the
     signature-emptiness discipline fault.mli documents. *)
  let silenced = Fault.compromise ~adversarial:(Adversary.silent_takeover counter) counter in
  let qs =
    List.hd
      (Dist.support
         (Psioa.step silenced (Psioa.start silenced) (Fault.compromise_action "k")))
  in
  Format.printf "silent takeover of an input-free member destroys it: signature empty=%b@."
    (Sigs.is_empty (Psioa.signature silenced qs));

  Pretty.section "2. A channel that leaks once compromised (tolerance k = 0)";
  (* The one-time-pad channel with a compromised mode that transmits the
     plaintext in the clear, behind an injector of its takeover
     (Sworkloads.compromised_otp). The environment plays the guess game of
     secure_channel.ml; the budget schema caps takeovers. One takeover is
     already fatal: the adversary reads the message and the simulator
     cannot reproduce the guess, so the slack jumps to exactly 1/2. *)
  let check_channel k =
    Emulation.check
      ~schema:(Fault.compromise_budget k)
      ~insight_of:Insight.accept
      ~envs:[ Secure_channel.env_guess ~msg:1 "sc" ]
      ~eps:Rat.zero ~q1:14 ~q2:14 ~depth:16
      ~adversaries:[ Secure_channel.adversary "sc" ]
      ~sim_for:(fun _ -> Secure_channel.simulator "sc")
      ~real:(Sworkloads.compromised_otp ~base:Secure_channel.real [ "sc" ])
      ~ideal:(Secure_channel.ideal "sc")
  in
  Pretty.table ~header:[ "budget k"; "holds"; "slack" ]
    (List.map
       (fun k ->
         let v = check_channel k in
         [ string_of_int k; string_of_bool v.Impl.holds; Rat.to_string v.Impl.worst ])
       [ 0; 1 ]);

  Pretty.section "3. A committee that tolerates k = 1 (quorum 2-of-3)";
  (* Each validator is wrapped with a silent takeover
     (Sworkloads.compromised_committee); the 2-of-3 quorum
     absorbs one silenced vote, so the slack stays exactly 0 through
     k = 1 and jumps to exactly 1 at k = 2 — the tolerance threshold of
     the protocol, recovered by the checker as a step function. *)
  let check_committee k =
    let nobody = Adversary.nobody () in
    let bound = 20 in
    Impl.approx_le
      ~schema:(Fault.compromise_budget ~avoid:Sworkloads.is_retire k)
      ~insight_of:Insight.accept
      ~envs:[ Committee.env_commit ~block:0 "cmt" ]
      ~eps:Rat.zero ~q1:bound ~q2:bound ~depth:(bound + 2)
      ~a:(Emulation.hidden_system (Sworkloads.compromised_committee ()) nobody)
      ~b:(Emulation.hidden_system (Committee.ideal ~blocks:1 "cmt") nobody)
  in
  Pretty.table ~header:[ "budget k"; "holds"; "slack" ]
    (List.map
       (fun k ->
         let v = check_committee k in
         [ string_of_int k; string_of_bool v.Impl.holds; Rat.to_string v.Impl.worst ])
       [ 0; 1; 2 ]);
  print_endline
    "The OTP channel tolerates no compromise at all (k = 0); the quorum\n\
     committee tolerates exactly one. Both thresholds fall out of the same\n\
     budgeted emulation query, with the slack exact on either side.";
  print_endline "compromise: done"
