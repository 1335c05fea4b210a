(** Deterministic workload automata shared by the test suites and the
    benchmark harness (deliverable (d): workload generators).

    Small, fully explicit PSIOAs whose exact execution measures can be
    computed by hand, used across the psioa/sched/config/secure tests. *)

open Cdse_prob
open Cdse_psioa

let act ?payload name = Action.make ?payload name

(* -------------------------------------------------------------------- *)
(* Fair (or biased) coin: one internal flip, then forever announce the
   outcome as an output.

   init --flip(int)--> heads | tails;  heads --out_heads--> heads (loop)   *)

let coin ?(p = Rat.half) name =
  let init = Value.tag "init" Value.unit in
  let heads = Value.tag "heads" Value.unit in
  let tails = Value.tag "tails" Value.unit in
  let flip = act (name ^ ".flip") in
  let out_heads = act (name ^ ".heads") in
  let out_tails = act (name ^ ".tails") in
  let signature q =
    if Value.equal q init then Sigs.of_lists ~h:[ flip ] ()
    else if Value.equal q heads then Sigs.of_lists ~o:[ out_heads ] ()
    else Sigs.of_lists ~o:[ out_tails ] ()
  in
  let transition q a =
    if Value.equal q init && Action.equal a flip then Some (Vdist.coin ~p heads tails)
    else if Value.equal q heads && Action.equal a out_heads then Some (Vdist.dirac heads)
    else if Value.equal q tails && Action.equal a out_tails then Some (Vdist.dirac tails)
    else None
  in
  Psioa.make ~name ~start:init ~signature ~transition

(* -------------------------------------------------------------------- *)
(* Bounded counter: output inc until the bound, then the signature becomes
   EMPTY — the canonical "self-destructing" automaton for configuration
   reduction (Definition 2.12). *)

let counter ?(bound = 3) name =
  let inc = act (name ^ ".inc") in
  let state k = Value.tag "ctr" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("ctr", Value.Int k) when k < bound -> Sigs.of_lists ~o:[ inc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ctr", Value.Int k) when k < bound && Action.equal a inc ->
        Some (Vdist.dirac (state (k + 1)))
    | _ -> None
  in
  Psioa.make ~name ~start:(state 0) ~signature ~transition

(* The message alphabet of the channel workloads below. *)
let alphabet = [ 0; 1 ]

(* -------------------------------------------------------------------- *)
(* One-slot channel: input send(m) when empty, output recv(m) when
   holding m. *)

let channel name =
  let empty = Value.tag "empty" Value.unit in
  let full m = Value.tag "full" (Value.int m) in
  let send m = act ~payload:(Value.int m) (name ^ ".send") in
  let recv m = act ~payload:(Value.int m) (name ^ ".recv") in
  let signature q =
    match q with
    | Value.Tag ("empty", _) -> Sigs.of_lists ~i:(List.map send alphabet) ()
    | Value.Tag ("full", Value.Int m) -> Sigs.of_lists ~o:[ recv m ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match (q, a.Action.payload) with
    | Value.Tag ("empty", _), Value.Int m
      when List.mem m alphabet && Action.equal a (send m) ->
        Some (Vdist.dirac (full m))
    | Value.Tag ("full", Value.Int m), Value.Int m' when m = m' && Action.equal a (recv m) ->
        Some (Vdist.dirac empty)
    | _ -> None
  in
  Psioa.make ~name ~start:empty ~signature ~transition

(* -------------------------------------------------------------------- *)
(* Sender: emits each message of a script through channel inputs
   [chan.send(m)], then stops. *)

let sender ~channel_name ?(script = [ 0; 1 ]) name =
  let state k = Value.tag "snd" (Value.int k) in
  let send m = act ~payload:(Value.int m) (channel_name ^ ".send") in
  let n = List.length script in
  let signature q =
    match q with
    | Value.Tag ("snd", Value.Int k) when k < n -> Sigs.of_lists ~o:[ send (List.nth script k) ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("snd", Value.Int k) when k < n && Action.equal a (send (List.nth script k)) ->
        Some (Vdist.dirac (state (k + 1)))
    | _ -> None
  in
  Psioa.make ~name ~start:(state 0) ~signature ~transition

(* -------------------------------------------------------------------- *)
(* Receiver: consumes recv(m) inputs, remembers the messages seen. *)

let receiver ~channel_name name =
  let state ms = Value.tag "rcv" (Value.list (List.map Value.int ms)) in
  let recv m = act ~payload:(Value.int m) (channel_name ^ ".recv") in
  let signature _ = Sigs.of_lists ~i:(List.map recv alphabet) () in
  let transition q a =
    match (q, a.Action.payload) with
    | Value.Tag ("rcv", Value.List ms), Value.Int m
      when List.mem m alphabet && Action.equal a (recv m) ->
        Some (Vdist.dirac (state (List.map (function Value.Int i -> i | _ -> 0) ms @ [ m ])))
    | _ -> None
  in
  Psioa.make ~name ~start:(state []) ~signature ~transition

(* -------------------------------------------------------------------- *)
(* Accept-environment: watches for a given action name (as input) and then
   outputs "acc" — the canonical distinguishing environment for the accept
   insight. *)

let acceptor ~watch name =
  let idle = Value.tag "idle" Value.unit in
  let seen = Value.tag "seen" Value.unit in
  let fired = Value.tag "fired" Value.unit in
  let acc = act "acc" in
  let signature q =
    if Value.equal q idle then Sigs.of_lists ~i:(List.map (fun (n, p) -> act ?payload:p n) watch) ()
    else if Value.equal q seen then Sigs.of_lists ~o:[ acc ] ()
    else Sigs.empty
  in
  let transition q a =
    if Value.equal q idle && List.exists (fun (n, p) -> Action.equal a (act ?payload:p n)) watch
    then Some (Vdist.dirac seen)
    else if Value.equal q seen && Action.equal a acc then Some (Vdist.dirac fired)
    else None
  in
  Psioa.make ~name ~start:idle ~signature ~transition

(* A deliberately broken automaton: enabled action without transition. *)
let broken_no_transition name =
  let a = act (name ^ ".go") in
  Psioa.make ~name ~start:Value.unit
    ~signature:(fun _ -> Sigs.of_lists ~o:[ a ] ())
    ~transition:(fun _ _ -> None)

(* A deliberately broken automaton: transition measure of mass 1/2. *)
let broken_improper name =
  let a = act (name ^ ".go") in
  Psioa.make ~name ~start:Value.unit
    ~signature:(fun _ -> Sigs.of_lists ~o:[ a ] ())
    ~transition:(fun q act' ->
      if Action.equal a act' then Some (Vdist.make [ (q, Rat.half) ]) else None)

(* -------------------------------------------------------------------- *)
(* Spawner: emits spawn outputs while below its budget; the PCA layer maps
   each spawn to the creation of a child automaton. *)

let spawner ?(max_children = 3) name =
  let state k = Value.tag "spawned" (Value.int k) in
  let spawn = act (name ^ ".spawn") in
  let signature q =
    match q with
    | Value.Tag ("spawned", Value.Int k) when k < max_children -> Sigs.of_lists ~o:[ spawn ] ()
    | _ -> Sigs.of_lists ()
  in
  let transition q a =
    match q with
    | Value.Tag ("spawned", Value.Int k) when k < max_children && Action.equal a spawn ->
        Some (Vdist.dirac (state (k + 1)))
    | _ -> None
  in
  Psioa.make ~name ~start:(state 0) ~signature ~transition

(* Fragile: its single output action kills it with probability p (moving it
   to an empty-signature state, destroyed by configuration reduction). *)

let fragile ?(p_die = Rat.half) name =
  let alive = Value.tag "alive" Value.unit in
  let dead = Value.tag "dead" Value.unit in
  let go = act (name ^ ".go") in
  let signature q = if Value.equal q alive then Sigs.of_lists ~o:[ go ] () else Sigs.empty in
  let transition q a =
    if Value.equal q alive && Action.equal a go then Some (Vdist.coin ~p:p_die dead alive)
    else None
  in
  Psioa.make ~name ~start:alive ~signature ~transition

(* -------------------------------------------------------------------- *)
(* n-slot FIFO channel: send when not full, receive in order. A deeper
   buffer than the one-slot channel, for pipeline workloads. *)

let fifo ?(capacity = 2) name =
  let state ms = Value.tag "fifo" (Value.list (List.map Value.int ms)) in
  let send m = act ~payload:(Value.int m) (name ^ ".send") in
  let recv m = act ~payload:(Value.int m) (name ^ ".recv") in
  let parse = function
    | Value.Tag ("fifo", Value.List l) ->
        Some (List.filter_map (function Value.Int i -> Some i | _ -> None) l)
    | _ -> None
  in
  let signature q =
    match parse q with
    | None -> Sigs.empty
    | Some ms ->
        Sigs.of_lists
          ~i:(if List.length ms < capacity then List.map send alphabet else [])
          ~o:(match ms with [] -> [] | m :: _ -> [ recv m ])
          ()
  in
  let transition q a =
    match parse q with
    | None -> None
    | Some ms -> (
        match ms with
        | m :: rest when Action.equal a (recv m) -> Some (Vdist.dirac (state rest))
        | _ ->
            if List.length ms < capacity then
              List.find_map
                (fun m -> if Action.equal a (send m) then Some (Vdist.dirac (state (ms @ [ m ]))) else None)
                alphabet
            else None)
  in
  Psioa.make ~name ~start:(state []) ~signature ~transition

(* Timer: ticks internally for [horizon] steps, then fires a timeout
   output and stops — the standard liveness-cutoff component. *)

let timer ?(horizon = 3) name =
  let tick = act (name ^ ".tick") in
  let fire = act (name ^ ".timeout") in
  let state k = Value.tag "timer" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("timer", Value.Int k) when k < horizon -> Sigs.of_lists ~h:[ tick ] ()
    | Value.Tag ("timer", Value.Int k) when k = horizon -> Sigs.of_lists ~o:[ fire ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("timer", Value.Int k) when k < horizon && Action.equal a tick ->
        Some (Vdist.dirac (state (k + 1)))
    | Value.Tag ("timer", Value.Int k) when k = horizon && Action.equal a fire ->
        Some (Vdist.dirac (state (k + 1)))
    | _ -> None
  in
  Psioa.make ~name ~start:(state 0) ~signature ~transition

(* Lazy random walk on 0..span: each internal step moves ±1 with equal
   probability (clamped at the borders). An unbounded-depth probabilistic
   workload for measure benchmarks. *)

(* Via-spliced faulty channel feeding a compromisable receiver (the
   robustness corner of the conformance corpus, also served as a named
   model by the cdse_serve daemon): a 3-message sender talks to an
   acking receiver through a lossy channel (even seeds) or a reordering
   delay channel (odd seeds), and an injector puts the receiver's
   takeover under scheduler control. Callers typically meter channel
   faults and takeovers together with [Fault.budget_sched]. *)

let faulty_channel ~seed =
  let module Fault = Cdse_fault.Fault in
  let msg n = Action.make ~payload:(Value.int n) "s.msg" in
  let acts = List.init 3 msg in
  let sender =
    Psioa.make ~name:"s" ~start:(Value.int 0)
      ~signature:(fun q ->
        match q with
        | Value.Int n when n < 3 ->
            Sigs.make ~input:Action_set.empty
              ~output:(Action_set.of_list [ msg n ])
              ~internal:Action_set.empty
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Int n when n < 3 && Action.equal a (msg n) ->
            Some (Vdist.dirac (Value.int (n + 1)))
        | _ -> None)
  in
  (* Counts deliveries; from two on it also acks — a locally controlled
     action that [Adversary.silent_takeover] silences, so a takeover is
     visible in the execution measure, not just in the state. *)
  let ack = Action.make "r.ack" in
  let receiver =
    Psioa.make ~name:"r" ~start:(Value.int 0)
      ~signature:(fun q ->
        match q with
        | Value.Int n when n < 6 ->
            Sigs.make
              ~input:(Action_set.of_list acts)
              ~output:(if n >= 2 then Action_set.of_list [ ack ] else Action_set.empty)
              ~internal:Action_set.empty
        | _ -> Sigs.empty)
      ~transition:(fun q a ->
        match q with
        | Value.Int n when n < 6 ->
            if Action.equal a ack then Some (Vdist.dirac q)
            else if List.exists (Action.equal a) acts then
              Some (Vdist.dirac (Value.int (n + 1)))
            else None
        | _ -> None)
  in
  let wrapped =
    Fault.compromise
      ~adversarial:(Cdse_secure.Adversary.silent_takeover receiver)
      receiver
  in
  let channel =
    if seed mod 2 = 0 then Fault.lossy_channel ~cap:4 ~name:"ch" ~acts ()
    else Fault.delay_channel ~cap:4 ~name:"ch" ~acts ()
  in
  let inj = Fault.injector ~faults:[ Fault.compromise_action "r" ] () in
  Compose.pair inj (Fault.via ~channel ~acts sender wrapped)

let random_walk ?(span = 4) name =
  let step = act (name ^ ".step") in
  let state k = Value.tag "walk" (Value.int k) in
  let signature _ = Sigs.of_lists ~h:[ step ] () in
  let transition q a =
    match q with
    | Value.Tag ("walk", Value.Int k) when Action.equal a step ->
        Some (Vdist.coin (state (min span (k + 1))) (state (max 0 (k - 1))))
    | _ -> None
  in
  Psioa.make ~name ~start:(state (span / 2)) ~signature ~transition
