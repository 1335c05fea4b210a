(* Command-line driver for the cdse library.

     cdse_cli validate            — validate the built-in workload automata
     cdse_cli measure  [...]      — exact execution measure of a workload
     cdse_cli emulate  [...]      — secure-emulation check (channel/coin)
     cdse_cli d1       [...]      — dummy-adversary insertion (Lemma D.1)
     cdse_cli churn    [...]      — dynamic subchain churn driver *)

open Cdse
open Cmdliner

(* ----------------------------------------------------------------- shared *)

let exit_flag ok = if ok then 0 else 1

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Collect engine observability counters (lib/obs) during the run and print a report afterwards")

(* Run [f] with stats collection if requested; the report goes to stdout
   after the command's own output. *)
let run_with_stats stats f =
  if not stats then f ()
  else begin
    let r, snap = Obs.with_stats f in
    Format.printf "-- stats --@.%a@." Obs.report snap;
    r
  end

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the run (lib/obs Trace) and write it to \
           $(docv) as Chrome trace-event JSON — load in chrome://tracing or \
           https://ui.perfetto.dev for a per-domain timeline. A text timing \
           summary (per-layer time, worker idle and imbalance attribution) \
           is printed to stdout.")

(* Run [f] under span tracing if requested. The Chrome JSON goes to [file];
   the self-profiling summary goes to stdout after the command's own
   output. Composes with [run_with_stats] in either nesting order. *)
let run_with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
      Trace.start ();
      let r = Fun.protect ~finally:Trace.stop f in
      Trace.write_chrome file;
      Format.printf "-- trace --@.%a@.wrote %s@." Trace.pp_summary (Trace.summary ())
        file;
      Trace.clear ();
      r

(* --------------------------------------------------------------- validate *)

let validate_cmd =
  let run () =
    let automata =
      [ Cdse_gen.Workloads.coin "coin";
        Cdse_gen.Workloads.counter "counter";
        Cdse_gen.Workloads.channel "chan";
        Structured.psioa (Cdse_gen.Sworkloads.relay "relay");
        Structured.psioa (Secure_channel.real "sc");
        Structured.psioa (Secure_channel.ideal "sc");
        Structured.psioa (Coin_flip.real "cf");
        Structured.psioa (Coin_flip.ideal "cf") ]
    in
    let ok =
      List.for_all
        (fun a ->
          match Psioa.validate ~max_states:500 a with
          | Ok () ->
              Format.printf "ok    %s@." (Psioa.name a);
              true
          | Error e ->
              Format.printf "FAIL  %s: %s@." (Psioa.name a) e;
              false)
        automata
    in
    let system = Dynamic_system.build () in
    let ok =
      ok
      &&
      match Pca.check_constraints ~max_states:300 ~max_depth:5 system with
      | Ok () ->
          Format.printf "ok    subchain-system (PCA constraints, Def 2.16)@.";
          true
      | Error e ->
          Format.printf "FAIL  subchain-system: %s@." e;
          false
    in
    exit_flag ok
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate the built-in workload automata")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- measure *)

let depth_arg =
  Arg.(value & opt int 6 & info [ "depth" ] ~docv:"N" ~doc:"Exploration depth")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Expand the cone across $(docv) OCaml domains (bit-identical results)")

let compress_arg =
  Arg.(
    value
    & opt (enum Par_measure.compress_levels) `Off
    & info [ "compress" ] ~docv:"LEVEL"
        ~doc:
          "State-space compression: off (no compression), hcons \
           (hash-consed states, identical results) or quotient (on-the-fly \
           bisimulation quotient of each frontier layer; trace-exact, \
           compressed execution support)")

let measure_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("coin", `Coin); ("relay", `Relay); ("random", `Random) ]) `Coin
      & info [ "workload" ] ~docv:"W" ~doc:"Workload: coin, relay or random")
  in
  let sched_kind =
    Arg.(
      value
      & opt (enum [ ("first", `First); ("uniform", `Uniform); ("round-robin", `Rr) ]) `Uniform
      & info [ "sched" ] ~docv:"S" ~doc:"Scheduler: first, uniform or round-robin")
  in
  let run workload sched_kind depth seed domains compress stats trace =
    let auto =
      match workload with
      | `Coin -> Cdse_gen.Workloads.coin "coin"
      | `Relay ->
          Compose.pair
            (Cdse_gen.Sworkloads.relay_env ~proto_name:"relay" "env")
            (Structured.psioa (Cdse_gen.Sworkloads.relay "relay"))
      | `Random -> Cdse_gen.Random_auto.make ~rng:(Rng.make seed) ~name:"rnd" ()
    in
    let sched =
      match sched_kind with
      | `First -> Scheduler.first_enabled auto
      | `Uniform -> Scheduler.uniform auto
      | `Rr -> Scheduler.round_robin auto
    in
    let d =
      run_with_trace trace (fun () ->
          run_with_stats stats (fun () ->
              Measure.exec_dist ~domains ~compress auto
                (Scheduler.bounded depth sched) ~depth))
    in
    Format.printf "%d completed executions, total mass %s@." (Dist.size d)
      (Rat.to_string (Dist.mass d));
    List.iter
      (fun (e, p) ->
        Format.printf "  p=%-8s %s@." (Rat.to_string p)
          (String.concat " · " (List.map Action.to_string (Exec.actions e))))
      (Dist.items d);
    0
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Exact execution measure of a workload under a scheduler")
    Term.(
      const run $ workload $ sched_kind $ depth_arg $ seed_arg $ domains_arg
      $ compress_arg $ stats_arg $ trace_arg)

(* ---------------------------------------------------------------- emulate *)

let emulate_cmd =
  let protocol =
    Arg.(
      value
      & opt
          (enum
             [ ("channel", `Channel); ("coin-flip", `Coin); ("secret-share", `Share);
               ("broadcast", `Broadcast) ])
          `Channel
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Protocol: channel, coin-flip, secret-share or broadcast")
  in
  let broken =
    Arg.(value & flag & info [ "broken" ] ~doc:"Use the broken real protocol (expected to fail)")
  in
  let compromise =
    Arg.(
      value & opt (some int) None
      & info [ "compromise" ] ~docv:"K"
          ~doc:
            "Channel only: wrap the real channel with a mid-run adversarial \
             takeover (the compromised channel leaks the plaintext) and check \
             emulation under a budget of $(docv) takeovers. Expected to hold \
             iff $(docv) = 0.")
  in
  let run protocol broken compromise stats trace =
    match (compromise, protocol) with
    | Some _, (`Coin | `Share | `Broadcast) ->
        Format.eprintf "error: --compromise applies to --protocol channel only@.";
        2
    | _ ->
    let v =
      run_with_trace trace @@ fun () ->
      run_with_stats stats @@ fun () ->
      match protocol with
      | `Channel when compromise <> None ->
          let k = Option.get compromise in
          let base = if broken then Secure_channel.real_leaky "sc" else Secure_channel.real "sc" in
          let wrapped =
            Fault.compromise
              ~adversarial:(Structured.psioa (Secure_channel.real_leaky "sc"))
              (Structured.psioa base)
          in
          let inj = Fault.injector ~faults:[ Fault.compromise_action "sc" ] () in
          let sys = Compose.pair inj wrapped in
          let eact q =
            Action_set.filter
              (fun a ->
                let b = Action.name a in
                String.equal b "sc.send" || String.equal b "sc.recv")
              (Sigs.ext (Psioa.signature sys q))
          in
          Emulation.check
            ~schema:(Fault.compromise_budget k)
            ~insight_of:Insight.accept
            ~envs:[ Secure_channel.env_guess ~msg:1 "sc" ]
            ~eps:Rat.zero ~q1:14 ~q2:14 ~depth:16
            ~adversaries:[ Secure_channel.adversary "sc" ]
            ~sim_for:(fun _ -> Secure_channel.simulator "sc")
            ~real:(Structured.make sys ~eact) ~ideal:(Secure_channel.ideal "sc")
      | `Channel ->
          let real = if broken then Secure_channel.real_leaky "sc" else Secure_channel.real "sc" in
          Emulation.check
            ~schema:(Schema.deterministic ~bound:12)
            ~insight_of:Insight.accept
            ~envs:[ Secure_channel.env_guess ~msg:1 "sc" ]
            ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14
            ~adversaries:[ Secure_channel.adversary "sc" ]
            ~sim_for:(fun _ -> Secure_channel.simulator "sc")
            ~real ~ideal:(Secure_channel.ideal "sc")
      | `Coin ->
          let real = if broken then Coin_flip.real_cheating "cf" else Coin_flip.real "cf" in
          Emulation.check
            ~schema:(Schema.deterministic ~bound:14)
            ~insight_of:Insight.accept
            ~envs:[ Coin_flip.env_result "cf" ]
            ~eps:Rat.zero ~q1:14 ~q2:14 ~depth:16 ~adversaries:[ Coin_flip.adversary "cf" ]
            ~sim_for:(fun _ -> Coin_flip.simulator "cf")
            ~real ~ideal:(Coin_flip.ideal "cf")
      | `Share ->
          let real = if broken then Secret_share.transparent "ss" else Secret_share.real "ss" in
          Emulation.check
            ~schema:(Schema.deterministic ~bound:12)
            ~insight_of:Insight.accept
            ~envs:[ Secret_share.env_guess ~secret:1 "ss" ]
            ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14 ~adversaries:[ Secret_share.adversary "ss" ]
            ~sim_for:(fun _ -> Secret_share.simulator "ss")
            ~real ~ideal:(Secret_share.ideal "ss")
      | `Broadcast ->
          (* No broken variant: --broken is ignored for broadcast. *)
          let k = 2 in
          Emulation.check
            ~schema:(Schema.deterministic ~bound:12)
            ~insight_of:Insight.accept
            ~envs:[ Broadcast.env_all_delivered ~k ~msg:1 "bc" ]
            ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14 ~adversaries:[ Broadcast.adversary ~k "bc" ]
            ~sim_for:(fun _ -> Broadcast.simulator ~k "bc")
            ~real:(Broadcast.real ~k "bc") ~ideal:(Broadcast.ideal ~k "bc")
    in
    (match compromise with
    | Some k -> Format.printf "compromise budget: %d takeover%s@." k (if k = 1 then "" else "s")
    | None -> ());
    Format.printf "secure emulation holds: %b (worst distance %s)@." v.Impl.holds
      (Rat.to_string v.Impl.worst);
    List.iter (fun (s, d) -> Format.printf "  %s -> %s@." s (Rat.to_string d)) v.Impl.detail;
    let expected =
      (not broken) && match compromise with Some k -> k = 0 | None -> true
    in
    exit_flag (v.Impl.holds = expected)
  in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Check dynamic secure emulation (Definition 4.26)")
    Term.(const run $ protocol $ broken $ compromise $ stats_arg $ trace_arg)

(* --------------------------------------------------------------------- d1 *)

let d1_cmd =
  let alphabet =
    Arg.(value & opt int 2 & info [ "alphabet" ] ~docv:"K" ~doc:"Relay message alphabet size")
  in
  let run alphabet depth =
    let alphabet = List.init (max 1 alphabet) Fun.id in
    let g = Dummy.prefix_renaming "g." in
    let setup =
      Forwarding.make_setup
        ~structured:(Cdse_gen.Sworkloads.relay ~alphabet "proto")
        ~g
        ~env:(Cdse_gen.Sworkloads.relay_env ~alphabet ~proto_name:"proto" "env")
        ~adv:
          (Cdse_gen.Sworkloads.relay_adversary ~alphabet ~proto_name:"proto"
             ~rename:(fun n -> "g." ^ n)
             "adv")
        ()
    in
    let report =
      Forwarding.check_lemma_d1 setup ~insight_of:Insight.accept
        ~sched:(Scheduler.uniform (Forwarding.lhs setup))
        ~q1:depth ~depth
    in
    Format.printf "dummy insertion distance: %s (exact: %b), q1=%d q2=%d@."
      (Rat.to_string report.Forwarding.distance)
      report.Forwarding.exact report.Forwarding.lhs_steps report.Forwarding.rhs_steps;
    exit_flag report.Forwarding.exact
  in
  Cmd.v
    (Cmd.info "d1" ~doc:"Dummy-adversary insertion check (Lemma D.1)")
    Term.(const run $ alphabet $ depth_arg)

(* -------------------------------------------------------------------- dot *)

let dot_cmd =
  let workload =
    Arg.(
      value
      & opt (enum [ ("coin", `Coin); ("relay", `Relay); ("channel", `Channel); ("subchain", `Subchain) ]) `Coin
      & info [ "workload" ] ~docv:"W" ~doc:"Workload: coin, relay, channel or subchain")
  in
  let table = Arg.(value & flag & info [ "table" ] ~doc:"Emit a text transition table instead of DOT") in
  let run workload table =
    let auto =
      match workload with
      | `Coin -> Cdse_gen.Workloads.coin "coin"
      | `Relay -> Structured.psioa (Cdse_gen.Sworkloads.relay "relay")
      | `Channel -> Cdse_gen.Workloads.channel "chan"
      | `Subchain ->
          Pca.psioa (Dynamic_system.build ~n_subchains:1 ~tx_values:[ 1 ] ~max_total:3 ())
    in
    print_string
      (if table then Dump.to_table ~max_states:200 auto else Dump.to_dot ~max_states:200 auto);
    0
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render a workload automaton as Graphviz DOT (or a text table)")
    Term.(const run $ workload $ table)

(* ------------------------------------------------------------------ bisim *)

let bisim_cmd =
  let run () =
    let checks =
      [ ("coin ~ coin", Cdse_gen.Workloads.coin "c", Cdse_gen.Workloads.coin "c");
        ( "fair ~ biased(1/3)",
          Cdse_gen.Workloads.coin "c",
          Cdse_gen.Workloads.coin ~p:(Rat.of_ints 1 3) "c" );
        ("slow-child ~ fast-child", Cdse_gen.Monotone.child_slow, Cdse_gen.Monotone.child_fast) ]
    in
    List.iter
      (fun (name, a, b) -> Format.printf "%-24s %b@." name (Bisim.bisimilar a b))
      checks;
    0
  in
  Cmd.v
    (Cmd.info "bisim" ~doc:"Strong probabilistic bisimulation demos")
    Term.(const run $ const ())

(* -------------------------------------------------------------- committee *)

let committee_cmd =
  let validators =
    Arg.(value & opt int 3 & info [ "validators" ] ~docv:"N" ~doc:"Validator budget")
  in
  let quorum =
    Arg.(value & opt (some int) None & info [ "quorum" ] ~docv:"T" ~doc:"Commit threshold (default: unanimity)")
  in
  let run validators quorum =
    let q = match quorum with Some t -> `At_least t | None -> `All in
    let cmt = Committee.build ~max_validators:validators ~blocks:1 ~quorum:q "cmt" in
    let auto = Pca.psioa cmt in
    (match Pca.check_constraints ~max_states:300 ~max_depth:5 cmt with
    | Ok () -> print_endline "PCA constraints: ok"
    | Error e -> Format.printf "PCA constraints: FAIL %s@." e);
    let step st a = List.hd (Dist.support (Psioa.step auto st a)) in
    let st = Psioa.start auto in
    let st = List.fold_left step st (List.init validators (Committee.add "cmt")) in
    let st = List.fold_left step st [ Committee.submit "cmt" 0; Committee.propose "cmt" 0 ] in
    let st =
      List.fold_left step st (List.init validators (fun i -> Committee.vote "cmt" i 0))
    in
    let st = step st (Committee.commit "cmt" 0) in
    Format.printf "committed blocks after one round with %d validators: [%s]@." validators
      (String.concat "; " (List.map string_of_int (Committee.committed cmt st)));
    0
  in
  Cmd.v
    (Cmd.info "committee" ~doc:"Drive the dynamic voting committee through one round")
    Term.(const run $ validators $ quorum)

(* ------------------------------------------------------------------ churn *)

let churn_cmd =
  let subchains =
    Arg.(value & opt int 4 & info [ "subchains" ] ~docv:"N" ~doc:"Subchain budget")
  in
  let steps = Arg.(value & opt int 2000 & info [ "steps" ] ~docv:"N" ~doc:"Driver steps") in
  let run subchains steps seed obs_stats trace =
    let system = Dynamic_system.build ~n_subchains:subchains ~max_total:(6 * subchains) () in
    let stats =
      run_with_trace trace (fun () ->
          run_with_stats obs_stats (fun () ->
              Dynamic_system.drive ~restart:true system ~rng:(Rng.make seed) ~steps))
    in
    Format.printf "steps %d, created %d, destroyed %d, max alive %d, ledger total %d@."
      stats.Dynamic_system.steps_taken stats.Dynamic_system.creations
      stats.Dynamic_system.destructions stats.Dynamic_system.max_alive
      stats.Dynamic_system.final_total;
    0
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Drive the dynamic subchain PCA under random churn")
    Term.(const run $ subchains $ steps $ seed_arg $ stats_arg $ trace_arg)

let () =
  let info =
    Cmd.info "cdse_cli" ~version:"1.0.0"
      ~doc:"Composable dynamic secure emulation — checkers and drivers"
  in
  exit (Cmd.eval' (Cmd.group info [ validate_cmd; measure_cmd; emulate_cmd; d1_cmd; churn_cmd; dot_cmd; bisim_cmd; committee_cmd ]))
