(* Tests for the secure layer: structured PSIOA/PCA (Defs 4.17-4.23),
   adversaries (Def 4.24, Lemma 4.25), the approximate implementation
   relation (Def 4.12, Lemmas 4.13/4.16), the dummy adversary and the
   Forward constructions (Def 4.27, Lemma D.1), secure emulation and its
   composability construction (Def 4.26, Thm 4.30). *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_testkit

let act = Fixtures.act
let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal

let relay = Sfixtures.relay "proto"
let relay_adv = Sfixtures.relay_adversary ~proto_name:"proto" ~rename:Fun.id "adv"
let relay_env = Sfixtures.relay_env ~proto_name:"proto" "env"

(* ------------------------------------------------------------ Structured *)

let test_structured_partitions () =
  let q = Sfixtures.q_got 0 in
  Alcotest.(check int) "EAct at got = ∅" 0 (Action_set.cardinal (Structured.eact relay q));
  Alcotest.(check int) "AAct at got = {leak}" 1 (Action_set.cardinal (Structured.aact relay q));
  Alcotest.(check int) "AO at got" 1 (Action_set.cardinal (Structured.ao relay q));
  Alcotest.(check int) "AI at sent" 1 (Action_set.cardinal (Structured.ai relay (Sfixtures.q_sent 0)));
  Alcotest.(check int) "EI at idle" 1 (Action_set.cardinal (Structured.ei relay Sfixtures.q_idle));
  Alcotest.(check int) "EO at done" 1 (Action_set.cardinal (Structured.eo relay (Sfixtures.q_done 0)))

let test_structured_universes () =
  let ai = Structured.ai_universe relay and ao = Structured.ao_universe relay in
  Alcotest.(check int) "AI universe = {deliver}" 1 (Action_set.cardinal ai);
  Alcotest.(check int) "AO universe = {leak(0)}" 1 (Action_set.cardinal ao);
  Alcotest.(check bool) "deliver in AI" true (Action_set.mem (act "proto.deliver") ai)

let test_structured_universe_truncation () =
  (* An unbounded counter reaches more states than the sweep explores: its
     adversary alphabets must be refused by name, never silently cut. *)
  let tick = act "u.tick" in
  let unbounded =
    Structured.make
      (Psioa.make ~name:"u" ~start:(Value.int 0)
         ~signature:(fun _ -> Sigs.of_lists ~i:[ act "u.poke" ] ~o:[ tick ] ())
         ~transition:(fun q a ->
           match q with
           | Value.Int n when Action.equal a tick -> Some (Vdist.dirac (Value.int (n + 1)))
           | _ when Action.equal a (act "u.poke") -> Some (Vdist.dirac q)
           | _ -> None))
      ~eact:(fun _ -> Action_set.empty)
  in
  let truncated =
    Structured.Universe_truncated { automaton = "u"; max_states = Psioa.default_max_states }
  in
  Alcotest.check_raises "AI universe" truncated (fun () ->
      ignore (Structured.ai_universe unbounded));
  Alcotest.check_raises "AO universe" truncated (fun () ->
      ignore (Structured.ao_universe unbounded));
  Alcotest.(check string) "the error names the automaton and the cap"
    "Structured.Universe_truncated: automaton \"u\" reaches more than 10000 states, so a \
     sweep of its reachable states is incomplete"
    (Printexc.to_string truncated);
  (* An explicit cap keeps the union over the explored prefix. *)
  Alcotest.(check int) "AAct over a 5-state prefix" 2
    (Action_set.cardinal (Structured.aact_universe ~max_states:5 unbounded))

(* A counter that ticks internally from state 0 to state 20 000, beyond
   the 10 000-state cap, and offers [last] there as an adversary action. *)
let far_counter ~sig_at_far last =
  let far = 20_000 and tick = act "far.tick" in
  Structured.make
    (Psioa.make ~name:"far" ~start:(Value.int 0)
       ~signature:(fun q ->
         if Value.equal q (Value.int far) then sig_at_far else Sigs.of_lists ~h:[ tick ] ())
       ~transition:(fun q a ->
         match q with
         | Value.Int n when n < far && Action.equal a tick ->
             Some (Vdist.dirac (Value.int (n + 1)))
         | Value.Int n when n = far && Action.equal a last -> Some (Vdist.dirac q)
         | _ -> None))
    ~eact:(fun _ -> Action_set.empty)

(* The checks refuse a truncated sweep too. A counter gains its only
   adversary input at state 20 000, beyond the 10 000-state cap, and the
   candidate adversary outputs nothing: a sweep that stopped at the cap
   would pass it. *)
let test_checks_refuse_truncated_sweep () =
  let cmd = act "far.cmd" in
  let counter = far_counter ~sig_at_far:(Sigs.of_lists ~i:[ cmd ] ()) cmd in
  let mute = Adversary.nobody () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s answered from a truncated sweep" what
    | exception Structured.Universe_truncated { automaton = _; max_states } ->
        Alcotest.(check int) (what ^ " names the cap") Psioa.default_max_states max_states
  in
  refused "Adversary.check" (fun () -> ignore (Adversary.check ~structured:counter mute));
  refused "Adversary.check_exn" (fun () -> Adversary.check_exn ~structured:counter mute);
  refused "Adversary.is_adversary" (fun () ->
      ignore (Adversary.is_adversary ~structured:counter mute));
  refused "Adversary.full_control" (fun () ->
      ignore (Adversary.full_control ~structured:counter mute));
  refused "Structured.compatible" (fun () ->
      ignore (Structured.compatible counter (Structured.make mute ~eact:(fun _ -> Action_set.empty))))

(* Theorem 4.30's composite simulator renames each component's AAct. A
   component whose only adversary output sits at state 20 000 would keep
   that action un-renamed under an alphabet swept up to the cap. *)
let test_composite_simulator_refuses_truncated_sweep () =
  let leak = act "far.leak" in
  let far = far_counter ~sig_at_far:(Sigs.of_lists ~o:[ leak ] ()) leak in
  let c =
    { Emulation.real = far; ideal = far; g = Dummy.prefix_renaming "g.";
      dsim = Adversary.nobody () }
  in
  match Emulation.composite_simulator ~components:[ c ] ~adv:(Adversary.nobody ()) with
  | _ -> Alcotest.fail "composite_simulator renamed from a truncated sweep"
  | exception Structured.Universe_truncated { automaton; max_states } ->
      Alcotest.(check (pair string int)) "names the component and the cap"
        ("far", Psioa.default_max_states) (automaton, max_states)

let test_structured_aact_one_signature () =
  let a, evals, reset = Fixtures.counted (Structured.psioa relay) in
  let s = Structured.make a ~eact:(Structured.eact relay) in
  let q = Sfixtures.q_got 0 in
  reset ();
  ignore (Structured.aact s q);
  Alcotest.(check int) "signature read once" 1 (evals q)

let test_structured_validate () =
  (match Structured.validate relay with Ok () -> () | Error e -> Alcotest.fail e);
  (* Declaring an EAct action outside ext must be caught. *)
  let bad = Structured.make (Structured.psioa relay) ~eact:(fun _ -> Action_set.of_list [ act "ghost" ]) in
  (* eact is intersected with ext by the smart accessor, so validation of
     the declared function flags nothing only if the accessor clips; the
     validate function checks the raw declaration. *)
  match Structured.validate bad with
  | Ok () -> Alcotest.fail "over-declared EAct accepted"
  | Error _ -> ()

let test_structured_validate_truncated () =
  let r = Fixtures.receiver ~channel_name:"ch" "r" in
  let s = Structured.make r ~eact:(fun q -> Sigs.ext (Psioa.signature r q)) in
  match Structured.validate ~max_states:100 s with
  | Ok () -> Alcotest.fail "a sweep cut at 100 states passed"
  | Error e ->
      Alcotest.(check bool) "names the automaton and the cap" true
        (Astring.String.is_infix ~affix:"\"r\"" e && Astring.String.is_infix ~affix:"100" e)

let test_structured_hide () =
  let out0 = act ~payload:(Value.int 0) "proto.out" in
  let hidden = Structured.hide relay (fun _ -> Action_set.of_list [ out0 ]) in
  Alcotest.(check int) "EO hidden away" 0
    (Action_set.cardinal (Structured.eo hidden (Sfixtures.q_done 0)))

let test_structured_compose_eact_union () =
  let r2 = Sfixtures.relay "proto2" in
  let c = Structured.compose relay r2 in
  let q = Value.pair Sfixtures.q_idle Sfixtures.q_idle in
  Alcotest.(check int) "EAct union" 2 (Action_set.cardinal (Structured.eact c q))

let test_structured_compatible () =
  let r2 = Sfixtures.relay "proto2" in
  Alcotest.(check bool) "disjoint protocols compatible" true (Structured.compatible relay r2);
  (* An automaton sharing the relay's *adversary* action as its own
     interface violates Definition 4.18. *)
  let eavesdropper =
    let leak0 = act ~payload:(Value.int 0) "proto.leak" in
    Structured.make
      (Psioa.make ~name:"eav" ~start:Value.unit
         ~signature:(fun _ -> Sigs.of_lists ~i:[ leak0 ] ())
         ~transition:(fun q a -> if Action.equal a leak0 then Some (Vdist.dirac q) else None))
      ~eact:(fun _ -> Action_set.empty)
  in
  Alcotest.(check bool) "AAct-shared pair incompatible" false
    (Structured.compatible relay eavesdropper)

(* ------------------------------------------------------------- Adversary *)

let test_adversary_accepted () =
  (match Adversary.check ~structured:relay relay_adv with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "full control" true (Adversary.full_control ~structured:relay relay_adv)

let test_adversary_rejected_eact () =
  let bad = Sfixtures.eact_touching_adversary ~proto_name:"proto" "bad" in
  Alcotest.(check bool) "EAct-touching rejected" false
    (Adversary.is_adversary ~structured:relay bad)

let test_adversary_rejected_missing_ai () =
  (* An adversary that receives leaks but can never deliver: AI_A ⊄
     out(Adv). *)
  let leak0 = act ~payload:(Value.int 0) "proto.leak" in
  let deaf =
    Psioa.make ~name:"deaf" ~start:Value.unit
      ~signature:(fun _ -> Sigs.of_lists ~i:[ leak0 ] ())
      ~transition:(fun q a -> if Action.equal a leak0 then Some (Vdist.dirac q) else None)
  in
  Alcotest.(check bool) "deaf adversary rejected" false (Adversary.is_adversary ~structured:relay deaf)

let contains ~sub s = Astring.String.is_infix ~affix:sub s

let test_adversary_rejected_incompatible () =
  (* An adversary that also outputs the relay's leak(0): once the relay
     holds a message, both sides output it, so the pair is not partially
     compatible (Definition 2.18) and Definition 4.24 cannot apply. *)
  let leak0 = act ~payload:(Value.int 0) "proto.leak" in
  let loud =
    Psioa.make ~name:"loud" ~start:Value.unit
      ~signature:(fun _ -> Sigs.of_lists ~o:[ leak0; act "proto.deliver" ] ())
      ~transition:(fun q _ -> Some (Vdist.dirac q))
  in
  (match Adversary.check ~structured:relay loud with
  | Ok () -> Alcotest.fail "incompatible adversary accepted"
  | Error msg ->
      Alcotest.(check bool) "message says not partially compatible" true
        (contains ~sub:"not partially compatible" msg));
  Alcotest.(check bool) "no full control" false (Adversary.full_control ~structured:relay loud)

let test_adversary_error_actionable () =
  (* The rejection must name both automata, the violated Definition 4.24
     condition and the offending action — enough to fix the adversary
     without re-deriving the check by hand. *)
  let leak0 = act ~payload:(Value.int 0) "proto.leak" in
  let deaf =
    Psioa.make ~name:"deaf" ~start:Value.unit
      ~signature:(fun _ -> Sigs.of_lists ~i:[ leak0 ] ())
      ~transition:(fun q a -> if Action.equal a leak0 then Some (Vdist.dirac q) else None)
  in
  (match Adversary.check ~structured:relay deaf with
  | Ok () -> Alcotest.fail "deaf adversary accepted"
  | Error msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "message mentions %S" sub) true
            (contains ~sub msg))
        [ "deaf"; Structured.name relay; "AI_A"; "proto.deliver" ]);
  match Adversary.check_exn ~structured:relay deaf with
  | () -> Alcotest.fail "check_exn did not raise"
  | exception Adversary.Not_adversary { adversary; action; _ } ->
      Alcotest.(check string) "exception names the adversary" "deaf" adversary;
      Alcotest.(check (option string)) "exception carries the undriven input"
        (Some "proto.deliver")
        (Option.map Action.name action)

let test_silent_takeover_shape () =
  (* The canonical compromise payload: inputs survive (composition
     partners stay unblocked), every locally controlled action is gone. *)
  let relay_auto = Structured.psioa relay in
  let silenced = Adversary.silent_takeover relay_auto in
  Alcotest.(check bool) "valid per Def 2.1" true
    (Result.is_ok (Psioa.validate ~max_states:400 silenced));
  List.iter
    (fun q ->
      let s = Psioa.signature silenced q and s0 = Psioa.signature relay_auto q in
      Alcotest.(check bool) "no locally controlled actions" true
        (Action_set.is_empty (Sigs.local s));
      Alcotest.(check bool) "inputs preserved (unless the state emptied)" true
        (Sigs.is_empty s || Action_set.equal (Sigs.input s) (Sigs.input s0)))
    (Psioa.reachable ~max_states:400 silenced)

let test_emulation_check_failed_printer () =
  (* real_leaky hands the plaintext to the adversary: the guess game
     accepts with probability 1 against the ideal world's 1/2. The raised
     failure must carry both names, the exact slack and a witness line. *)
  let bound = 12 in
  match
    Emulation.check_exn
      ~schema:Schema.first_enabled
      ~insight_of:Insight.accept
      ~envs:[ Cdse_crypto.Secure_channel.env_guess ~msg:1 "n0" ]
      ~eps:Rat.zero ~q1:bound ~q2:bound ~depth:(bound + 2)
      ~adversaries:[ Cdse_crypto.Secure_channel.adversary "n0" ]
      ~sim_for:(fun _ -> Cdse_crypto.Secure_channel.simulator "n0")
      ~real:(Cdse_crypto.Secure_channel.real_leaky "n0")
      ~ideal:(Cdse_crypto.Secure_channel.ideal "n0")
  with
  | _ -> Alcotest.fail "leaky channel accepted"
  | exception (Emulation.Check_failed { worst; witness; _ } as exn) ->
      Alcotest.(check string) "exact slack 1/2" "1/2" (Rat.to_string worst);
      Alcotest.(check bool) "witness carries a detail line" true
        (String.length witness > 0);
      let rendered = Printexc.to_string exn in
      List.iter
        (fun sub ->
          Alcotest.(check bool) (Printf.sprintf "printer mentions %S" sub) true
            (contains ~sub rendered))
        [ "does not securely emulate"; "1/2" ]

let test_lemma_425_restriction () =
  (* Lemma 4.25: an adversary for A||B is an adversary for A. Build an
     adversary serving two relays, check it against one. *)
  let r2 = Sfixtures.relay "proto2" in
  let composed = Structured.compose relay r2 in
  let adv2 =
    (* Forwarder serving both protocols. *)
    let leak p = act ~payload:(Value.int 0) (p ^ ".leak") in
    let deliver p = act (p ^ ".deliver") in
    let state pending = Value.tag "adv2" (Value.list (List.map Value.str pending)) in
    let protos = [ "proto"; "proto2" ] in
    let signature q =
      match q with
      | Value.Tag ("adv2", Value.List pend) ->
          let pending = List.filter_map (function Value.Str s -> Some s | _ -> None) pend in
          Sigs.of_lists
            ~i:(List.map leak protos)
            ~o:(List.map deliver pending)
            ()
      | _ -> Sigs.empty
    in
    let transition q a =
      match q with
      | Value.Tag ("adv2", Value.List pend) ->
          let pending = List.filter_map (function Value.Str s -> Some s | _ -> None) pend in
          List.find_map
            (fun p ->
              if Action.equal a (leak p) then
                if List.mem p pending then Some (Vdist.dirac q)
                else Some (Vdist.dirac (state (List.sort String.compare (p :: pending))))
              else if Action.equal a (deliver p) && List.mem p pending then
                Some (Vdist.dirac (state (List.filter (fun x -> x <> p) pending)))
              else None)
            protos
      | _ -> None
    in
    Psioa.make ~name:"adv2" ~start:(state []) ~signature ~transition
  in
  Alcotest.(check bool) "adversary for A||B" true (Adversary.is_adversary ~structured:composed adv2);
  Alcotest.(check bool) "restriction: adversary for A" true
    (Adversary.is_adversary ~structured:relay adv2)

(* ------------------------------------------------------------------ Impl *)

let coin_pair p name = Fixtures.coin ~p name

let accept_envs = [ Fixtures.acceptor ~watch:[ ("c.heads", None) ] "env" ]

let impl_check ~eps pa pb =
  Impl.approx_le ~schema:(Schema.standard ~bound:4) ~insight_of:Insight.accept ~envs:accept_envs
    ~eps ~q1:4 ~q2:4 ~depth:6 ~a:(coin_pair pa "c") ~b:(coin_pair pb "c")

let test_impl_identical_holds () =
  let v = impl_check ~eps:Rat.zero Rat.half Rat.half in
  Alcotest.(check bool) "A ≤ A at ε=0" true v.Impl.holds;
  Alcotest.check rat "distance 0" Rat.zero v.Impl.worst

let test_impl_biased_fails_then_holds () =
  let v0 = impl_check ~eps:Rat.zero Rat.half (Rat.of_ints 3 4) in
  Alcotest.(check bool) "fails at ε=0" false v0.Impl.holds;
  (* The bias gap is 1/4; with best-match scheduler search the worst
     distance lies in (0, 1/4]. *)
  Alcotest.(check bool) "worst in (0, 1/4]" true
    (Rat.sign v0.Impl.worst > 0 && Rat.compare v0.Impl.worst (Rat.of_ints 1 4) <= 0);
  let v1 = impl_check ~eps:(Rat.of_ints 1 4) Rat.half (Rat.of_ints 3 4) in
  Alcotest.(check bool) "holds at ε=1/4" true v1.Impl.holds

let test_impl_ideal_fdist_once_per_env () =
  (* Two schedulers a side and one environment: each real-side σ1 is
     matched against the same two ideal-side candidates, whose f-dists
     are computed once, not once per σ1. *)
  let calls = ref 0 in
  let insight_of x =
    incr calls;
    Insight.accept x
  in
  let v =
    Impl.approx_le ~schema:(Schema.deterministic ~bound:4) ~insight_of ~envs:accept_envs
      ~eps:Rat.zero ~q1:4 ~q2:4 ~depth:6 ~a:(coin_pair Rat.half "c") ~b:(coin_pair Rat.half "c")
  in
  Alcotest.(check bool) "A ≤ A" true v.Impl.holds;
  Alcotest.(check int) "one entry per σ1" 2 (List.length v.Impl.detail);
  Alcotest.(check int) "2 real-side + 2 ideal-side f-dists" 4 !calls

let test_impl_transitivity_eps_adds () =
  (* Theorem 4.16: ε13 ≤ ε12 + ε23 (here with deterministic-scheduler
     matching the worst distances are exactly the bias gaps). *)
  let d12 = (impl_check ~eps:Rat.one Rat.half (Rat.of_ints 5 8)).Impl.worst in
  let d23 = (impl_check ~eps:Rat.one (Rat.of_ints 5 8) (Rat.of_ints 3 4)).Impl.worst in
  let d13 = (impl_check ~eps:Rat.one Rat.half (Rat.of_ints 3 4)).Impl.worst in
  Alcotest.(check bool) "ε13 ≤ ε12 + ε23" true (Rat.compare d13 (Rat.add d12 d23) <= 0)

let test_impl_composability_context () =
  (* Lemma 4.13 shape: composing a compatible context A3 onto both sides
     does not increase the distinguishing distance. Checked under the
     deterministic matched scheduler so both sides replay the same
     interleaving. *)
  let ctx = Fixtures.counter ~bound:2 "ctx" in
  let a13 = Compose.pair ctx (coin_pair Rat.half "c") in
  let a23 = Compose.pair ctx (coin_pair (Rat.of_ints 3 4) "c") in
  let plain =
    Impl.approx_le ~schema:Schema.first_enabled ~insight_of:Insight.accept ~envs:accept_envs ~eps:Rat.one ~q1:6
      ~q2:6 ~depth:8 ~a:(coin_pair Rat.half "c") ~b:(coin_pair (Rat.of_ints 3 4) "c")
  in
  let v =
    Impl.approx_le ~schema:Schema.first_enabled ~insight_of:Insight.accept ~envs:accept_envs ~eps:Rat.one ~q1:8
      ~q2:8 ~depth:10 ~a:a13 ~b:a23
  in
  Alcotest.(check bool) "context does not amplify" true
    (Rat.compare v.Impl.worst plain.Impl.worst <= 0)

let test_impl_family_neg_pt () =
  (* Family version: identical families are ≤_{neg,pt} with ε = 0 ≤ 2^-k. *)
  let fam _k = coin_pair Rat.half "c" in
  let v =
    Impl.le_neg_pt ~window:[ 1; 2; 3 ] ~schema:(Schema.standard ~bound:4)
      ~insight_of:Insight.accept
      ~envs:(fun _ -> accept_envs)
      ~eps:Cdse_bounded.Negligible.inv_pow2
      ~q1:(Cdse_util.Poly.of_coeffs [ 4 ])
      ~q2:(Cdse_util.Poly.of_coeffs [ 4 ])
      ~depth:(fun _ -> 6) ~a:fam ~b:fam
  in
  Alcotest.(check bool) "family holds" true v.Impl.holds

let test_impl_family_composability_lemma_414 () =
  (* Lemma 4.14 / B.5 on an instance family: if A_k ≤ B_k at every index,
     then C_k||A_k ≤ C_k||B_k at every index (deterministic matched
     schedulers, identical-pair family so ε = 0). *)
  let fam_a _k = coin_pair Rat.half "c" in
  let fam_c k = Fixtures.counter ~bound:(1 + (k mod 3)) "ctx" in
  let composed fam k = Compose.pair (fam_c k) (fam k) in
  let v =
    Impl.approx_le_family ~window:[ 1; 2; 3 ] ~schema:Schema.first_enabled ~insight_of:Insight.accept
      ~envs:(fun _ -> accept_envs)
      ~eps:(fun _ -> Rat.zero)
      ~q1:(fun k -> 6 + k) ~q2:(fun k -> 6 + k)
      ~depth:(fun k -> 8 + k)
      ~a:(composed fam_a) ~b:(composed fam_a)
  in
  Alcotest.(check bool) "C||A ≤ C||B over the window" true v.Impl.holds

let test_triangle_chain () =
  (* A four-coin bias ladder: pairwise gaps 1/8 each under the matched
     deterministic scheduler; the direct distance is 3/8 = the sum
     (equality: the accept probability is linear in the bias). *)
  let ps = [ Rat.half; Rat.of_ints 5 8; Rat.of_ints 3 4; Rat.of_ints 7 8 ] in
  let report =
    Impl.triangle_chain
      ~schema:Schema.first_enabled
      ~insight_of:Insight.accept ~envs:accept_envs ~q:4 ~depth:6
      (List.map (fun p -> coin_pair p "c") ps)
  in
  Alcotest.(check int) "three links" 3 (List.length report.Impl.pairwise);
  Alcotest.(check bool) "triangle bound holds" true report.Impl.triangle_holds;
  Alcotest.check rat "direct = 3/8" (Rat.of_ints 3 8) report.Impl.direct;
  Alcotest.check rat "sum = 3/8" (Rat.of_ints 3 8) report.Impl.total_bound

(* ----------------------------------------------------------------- Dummy *)

let g = Dummy.prefix_renaming "g."

let test_dummy_is_valid_psioa () =
  let dummy =
    Dummy.make ~name:"dum" ~ai:(Structured.ai_universe relay) ~ao:(Structured.ao_universe relay) ~g
  in
  (* The dummy has unbounded-in-principle state space (one state per
     receivable action + idle): validate on its small actual space. *)
  match Psioa.validate ~max_states:20 dummy with Ok () -> () | Error e -> Alcotest.fail e

let test_dummy_forwards () =
  let dummy =
    Dummy.make ~name:"dum" ~ai:(Structured.ai_universe relay) ~ao:(Structured.ao_universe relay) ~g
  in
  let leak0 = act ~payload:(Value.int 0) "proto.leak" in
  (* Receive an AO action: must offer g(leak0). *)
  let q1 = List.hd (Dist.support (Psioa.step dummy Dummy.idle leak0)) in
  Alcotest.(check bool) "pending after receive" true (Dummy.pending_of q1 <> None);
  Alcotest.(check bool) "offers g(leak0)" true (Psioa.is_enabled dummy q1 (g.Dummy.apply leak0));
  let q2 = List.hd (Dist.support (Psioa.step dummy q1 (g.Dummy.apply leak0))) in
  Alcotest.(check bool) "idle after forward" true (Value.equal q2 Dummy.idle);
  (* Receive a renamed AI command: must offer the unrenamed action. *)
  let gdeliver = g.Dummy.apply (act "proto.deliver") in
  let q3 = List.hd (Dist.support (Psioa.step dummy Dummy.idle gdeliver)) in
  Alcotest.(check bool) "offers deliver" true (Psioa.is_enabled dummy q3 (act "proto.deliver"))

(* ------------------------------------------------------------ Forwarding *)

let d1_setup () =
  let adv_renamed = Sfixtures.relay_adversary ~proto_name:"proto" ~rename:(fun n -> "g." ^ n) "adv" in
  Forwarding.make_setup ~structured:relay ~g ~env:relay_env ~adv:adv_renamed ()

let test_forward_exec_valid () =
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup and rhs = Forwarding.rhs setup in
  let sched = Scheduler.bounded 6 (Scheduler.first_enabled lhs) in
  let d = Measure.exec_dist lhs sched ~depth:6 in
  List.iter
    (fun alpha ->
      let alpha' = Forwarding.forward_exec setup alpha in
      (* Every forwarded execution must be a genuine rhs execution: each
         step enabled with the recorded target in the support. *)
      Alcotest.(check bool) "starts at rhs start" true
        (Value.equal (Exec.fstate alpha') (Psioa.start rhs));
      let rec check q = function
        | [] -> ()
        | (a, q') :: rest ->
            let eta = Psioa.step rhs q a in
            Alcotest.(check bool)
              (Format.asprintf "step %a reachable" Action.pp a)
              true
              (List.exists (Value.equal q') (Dist.support eta));
            check q' rest
      in
      check (Exec.fstate alpha') (Exec.steps alpha'))
    (Dist.support d)

let test_forward_exec_lengths () =
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup in
  let sched = Scheduler.bounded 6 (Scheduler.first_enabled lhs) in
  let d = Measure.exec_dist lhs sched ~depth:6 in
  List.iter
    (fun alpha ->
      let alpha' = Forwarding.forward_exec setup alpha in
      Alcotest.(check bool) "|α'| ≤ 2|α|" true (Exec.length alpha' <= 2 * Exec.length alpha))
    (Dist.support d)

let test_lemma_d1_exact () =
  (* The heart of Lemma D.1: inserting the dummy adversary and forwarding
     the scheduler leaves the accept-distribution exactly unchanged. *)
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup in
  let report =
    Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept
      ~sched:(Scheduler.first_enabled lhs) ~q1:6 ~depth:6
  in
  Alcotest.check rat "distance 0" Rat.zero report.Forwarding.distance;
  Alcotest.(check bool) "exact" true report.Forwarding.exact;
  Alcotest.(check int) "q2 = 2 q1" 12 report.Forwarding.rhs_steps

let test_lemma_d1_exact_uniform () =
  (* Same with a randomized scheduler — exercises non-Dirac choices through
     the forwarding. *)
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup in
  let report =
    Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept ~sched:(Scheduler.uniform lhs)
      ~q1:6 ~depth:6
  in
  Alcotest.(check bool) "exact with uniform scheduler" true report.Forwarding.exact

let test_lemma_d1_trace_insight () =
  (* Stronger observation: the full external trace agrees, not just the
     accept bit. *)
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup in
  let report =
    Forwarding.check_lemma_d1 setup ~insight_of:Insight.trace
      ~sched:(Scheduler.first_enabled lhs) ~q1:6 ~depth:6
  in
  Alcotest.(check bool) "traces identical" true report.Forwarding.exact

let test_lemma_d1_on_pca () =
  (* Lemma D.1's "(resp. PCA)" clause: the same forwarding construction,
     with the structured automaton being a configuration automaton — the
     relay wrapped as the single member of a canonical PCA, its EAct
     derived through the structured-PCA layer (Definition 4.22). *)
  let relay_auto = Structured.psioa relay in
  let registry = Cdse_psioa.Registry.of_list [ relay_auto ] in
  let pca =
    Cdse_config.Pca.make ~name:"relay-pca" ~registry
      ~init:(Cdse_config.Config.start_of registry [ "proto" ]) ()
  in
  let spca =
    Spca.make ~pca ~member_eact:(fun _id q -> Structured.eact relay q)
  in
  let structured_pca = Spca.to_structured spca in
  (* The PCA's states are configuration encodings; its actions are the
     relay's, so the same adversary and environment apply. *)
  let adv = Sfixtures.relay_adversary ~proto_name:"proto" ~rename:(fun n -> "g." ^ n) "adv" in
  let setup = Forwarding.make_setup ~structured:structured_pca ~g ~env:relay_env ~adv () in
  let lhs = Forwarding.lhs setup in
  List.iter
    (fun sched ->
      let report =
        Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept ~sched ~q1:6 ~depth:6
      in
      Alcotest.(check bool) "exact on the PCA" true report.Forwarding.exact)
    [ Scheduler.first_enabled lhs; Scheduler.uniform lhs ]

let test_lemma_d1_family () =
  (* Lemma 4.29 at the family level: the relay family indexed by alphabet
     size, exact at every index. *)
  let ok =
    Forwarding.check_lemma_d1_family ~window:[ 1; 2; 3 ]
      ~setup_of:(fun k ->
        let alphabet = List.init k Fun.id in
        Forwarding.make_setup
          ~structured:(Sfixtures.relay ~alphabet "proto")
          ~g
          ~env:(Sfixtures.relay_env ~alphabet ~proto_name:"proto" "env")
          ~adv:
            (Sfixtures.relay_adversary ~alphabet ~proto_name:"proto"
               ~rename:(fun n -> "g." ^ n)
               "adv")
          ())
      ~insight_of:Insight.accept
      ~sched_of:(fun _ setup -> Scheduler.first_enabled (Forwarding.lhs setup))
      ~q1:(fun _ -> 6)
      ~depth:(fun _ -> 6)
  in
  Alcotest.(check bool) "family exact" true ok

let test_brave_pair () =
  (* Definition 4.28's checkable bullets hold for (deterministic schema,
     accept): hiding-invariance and Forward^e observation preservation. *)
  let setup = d1_setup () in
  let lhs = Forwarding.lhs setup in
  Alcotest.(check bool) "brave (accept)" true
    (Forwarding.check_brave setup ~insight_of:Insight.accept
       ~sched:(Scheduler.first_enabled lhs) ~q1:6 ~depth:6);
  Alcotest.(check bool) "brave (uniform)" true
    (Forwarding.check_brave setup ~insight_of:Insight.accept ~sched:(Scheduler.uniform lhs)
       ~q1:6 ~depth:6)

(* ------------------------------------------------------------- Emulation *)

let test_emulation_reflexive () =
  (* A ≤_SE A with the identity simulator. *)
  let v =
    Emulation.check ~schema:(Schema.standard ~bound:6) ~insight_of:Insight.accept
      ~envs:[ relay_env ] ~eps:Rat.zero ~q1:6 ~q2:6 ~depth:8 ~adversaries:[ relay_adv ]
      ~sim_for:Fun.id ~real:relay ~ideal:relay
  in
  Alcotest.(check bool) "A ≤_SE A" true v.Impl.holds;
  Alcotest.check rat "exactly 0" Rat.zero v.Impl.worst

let test_emulation_detects_leaky_ideal () =
  (* An 'ideal' that never completes is distinguishable: the acc output
     never fires. *)
  let stuck =
    Structured.make
      (Psioa.make ~name:"proto" ~start:Sfixtures.q_idle
         ~signature:(fun q ->
           if Value.equal q Sfixtures.q_idle then
             Sigs.of_lists ~i:[ act ~payload:(Value.int 0) "proto.in" ] ()
           else Sigs.empty)
         ~transition:(fun _q a ->
           if Action.equal a (act ~payload:(Value.int 0) "proto.in") then
             Some (Vdist.dirac (Value.tag "stuck" Value.unit))
           else None))
      ~eact:(fun _ -> Action_set.of_list [ act ~payload:(Value.int 0) "proto.in" ])
  in
  let v =
    Emulation.check ~schema:(Schema.standard ~bound:6) ~insight_of:Insight.accept
      ~envs:[ relay_env ] ~eps:Rat.zero ~q1:6 ~q2:6 ~depth:8 ~adversaries:[ relay_adv ]
      ~sim_for:Fun.id ~real:relay ~ideal:stuck
  in
  Alcotest.(check bool) "distinguished" false v.Impl.holds;
  Alcotest.check rat "full distance" Rat.one v.Impl.worst

let test_hidden_system_per_state () =
  (* Def 4.26 hides AAct_A(q_A) at each state: x is an adversary output at
     state 0 and an environment output at state 1, so it is internal at
     (0, _) and visible at (1, _). A fixed union would hide it at both. *)
  let x = act "x" in
  let two_step =
    Structured.make
      (Psioa.make ~name:"two-step" ~start:(Value.int 0)
         ~signature:(function
           | Value.Int n when n < 2 -> Sigs.of_lists ~o:[ x ] ()
           | _ -> Sigs.empty)
         ~transition:(fun q a ->
           match q with
           | Value.Int n when n < 2 && Action.equal a x -> Some (Vdist.dirac (Value.int (n + 1)))
           | _ -> None))
      ~eact:(fun q -> if Value.equal q (Value.int 1) then Action_set.singleton x else Action_set.empty)
  in
  let sys = Emulation.hidden_system two_step (Adversary.nobody ()) in
  let at n = Psioa.signature sys (Value.pair (Value.int n) Value.unit) in
  Alcotest.(check bool) "x hidden at (0, _)" true (Action_set.mem x (Sigs.internal (at 0)));
  Alcotest.(check bool) "x visible at (1, _)" true (Action_set.mem x (Sigs.output (at 1)))

let test_hidden_system_explores_nothing () =
  (* An unbounded counter whose every tick is an adversary output: building
     the ≤_SE system must not evaluate a single signature. *)
  let calls = ref 0 in
  let tick = act "tick" in
  let counter =
    Structured.make
      (Psioa.make ~name:"counter" ~start:(Value.int 0)
         ~signature:(fun _ ->
           incr calls;
           Sigs.of_lists ~o:[ tick ] ())
         ~transition:(fun q a ->
           match q with
           | Value.Int n when Action.equal a tick -> Some (Vdist.dirac (Value.int (n + 1)))
           | _ -> None))
      ~eact:(fun _ -> Action_set.empty)
  in
  let sys = Emulation.hidden_system counter (Adversary.nobody ()) in
  Alcotest.(check int) "no signature evaluated" 0 !calls;
  Alcotest.(check bool) "tick hidden at the start" true
    (Action_set.mem tick (Sigs.internal (Psioa.signature sys (Psioa.start sys))))

let test_composite_simulator_shape () =
  (* Theorem 4.30 construction on one component reduces to
     hide(DSim || g(Adv), g(AAct)). Sanity: the composite simulator is a
     valid PSIOA and exposes no renamed actions externally. *)
  let c =
    { Emulation.real = relay; ideal = relay; g; dsim = Forwarding.dummy (d1_setup ()) }
  in
  let sim = Emulation.composite_simulator ~components:[ c ] ~adv:relay_adv in
  let q0 = Psioa.start sim in
  let sg = Psioa.signature sim q0 in
  Action_set.iter
    (fun a ->
      Alcotest.(check bool)
        (Format.asprintf "no renamed external output %a" Action.pp a)
        false
        (String.length (Action.name a) > 2 && String.sub (Action.name a) 0 2 = "g."))
    (Sigs.output sg)

let () =
  Alcotest.run "cdse_secure"
    [ ( "structured",
        [ Alcotest.test_case "partitions (Def 4.17)" `Quick test_structured_partitions;
          Alcotest.test_case "action universes" `Quick test_structured_universes;
          Alcotest.test_case "truncated universe refused" `Quick test_structured_universe_truncation;
          Alcotest.test_case "checks refuse a truncated sweep" `Quick
            test_checks_refuse_truncated_sweep;
          Alcotest.test_case "composite simulator refuses a truncated sweep" `Quick
            test_composite_simulator_refuses_truncated_sweep;
          Alcotest.test_case "AAct reads the signature once" `Quick test_structured_aact_one_signature;
          Alcotest.test_case "validation" `Quick test_structured_validate;
          Alcotest.test_case "validation refuses a truncated sweep" `Quick
            test_structured_validate_truncated;
          Alcotest.test_case "hiding (Def 4.17)" `Quick test_structured_hide;
          Alcotest.test_case "composition EAct union (Def 4.19)" `Quick test_structured_compose_eact_union;
          Alcotest.test_case "compatibility (Def 4.18)" `Quick test_structured_compatible ] );
      ( "adversary",
        [ Alcotest.test_case "accepted (Def 4.24)" `Quick test_adversary_accepted;
          Alcotest.test_case "EAct-touching rejected" `Quick test_adversary_rejected_eact;
          Alcotest.test_case "missing AI coverage rejected" `Quick test_adversary_rejected_missing_ai;
          Alcotest.test_case "restriction (Lemma 4.25)" `Quick test_lemma_425_restriction;
          Alcotest.test_case "rejection is actionable" `Quick test_adversary_error_actionable;
          Alcotest.test_case "not partially compatible rejected" `Quick
            test_adversary_rejected_incompatible;
          Alcotest.test_case "silent takeover shape" `Quick test_silent_takeover_shape ] );
      ( "impl",
        [ Alcotest.test_case "identical holds at ε=0" `Quick test_impl_identical_holds;
          Alcotest.test_case "bias detected then tolerated" `Quick test_impl_biased_fails_then_holds;
          Alcotest.test_case "ideal-side f-dists once per environment" `Quick
            test_impl_ideal_fdist_once_per_env;
          Alcotest.test_case "transitivity ε-addition (Thm 4.16)" `Quick test_impl_transitivity_eps_adds;
          Alcotest.test_case "context composability (Lemma 4.13)" `Quick test_impl_composability_context;
          Alcotest.test_case "family ≤ neg,pt (Def 4.12)" `Quick test_impl_family_neg_pt;
          Alcotest.test_case "family composability (Lemma 4.14)" `Quick
            test_impl_family_composability_lemma_414;
          Alcotest.test_case "hybrid chain triangle bound" `Quick test_triangle_chain ] );
      ( "dummy",
        [ Alcotest.test_case "valid PSIOA (Def 4.27)" `Quick test_dummy_is_valid_psioa;
          Alcotest.test_case "forwards both directions" `Quick test_dummy_forwards ] );
      ( "forwarding",
        [ Alcotest.test_case "Forward^e yields rhs executions" `Quick test_forward_exec_valid;
          Alcotest.test_case "Forward^e length bound" `Quick test_forward_exec_lengths;
          Alcotest.test_case "Lemma D.1: ε = 0 (accept)" `Quick test_lemma_d1_exact;
          Alcotest.test_case "Lemma D.1: ε = 0 (uniform sched)" `Quick test_lemma_d1_exact_uniform;
          Alcotest.test_case "Lemma D.1: traces identical" `Quick test_lemma_d1_trace_insight;
          Alcotest.test_case "Lemma D.1 on a PCA (resp. PCA clause)" `Quick test_lemma_d1_on_pca;
          Alcotest.test_case "Lemma 4.29 at the family level" `Quick test_lemma_d1_family;
          Alcotest.test_case "brave pair bullets (Def 4.28)" `Quick test_brave_pair ] );
      ( "emulation",
        [ Alcotest.test_case "reflexivity (Def 4.26)" `Quick test_emulation_reflexive;
          Alcotest.test_case "detects broken ideal" `Quick test_emulation_detects_leaky_ideal;
          Alcotest.test_case "Thm 4.30 composite simulator" `Quick test_composite_simulator_shape;
          Alcotest.test_case "Check_failed printer" `Quick test_emulation_check_failed_printer;
          Alcotest.test_case "AAct hidden per state (Def 4.26)" `Quick test_hidden_system_per_state;
          Alcotest.test_case "building the system explores nothing" `Quick
            test_hidden_system_explores_nothing ] ) ]
