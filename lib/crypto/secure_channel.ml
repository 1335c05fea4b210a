open Cdse_psioa
open Cdse_secure

let act = Action.make
let acti name m = Action.make ~payload:(Value.int m) name

let msgs width = List.init (1 lsl width) Fun.id

(* ------------------------------------------------------------- real side *)

(* States: keygen → hold key → got message → ciphertext out → await
   delivery → deliver → done. *)
let real_with ~keygen ~cipher ?(width = 1) n =
  let send m = acti (n ^ ".send") m in
  let ct c = acti (n ^ ".ct") c in
  let deliver = act (n ^ ".deliver") in
  let recv m = acti (n ^ ".recv") m in
  let kg = act (n ^ ".keygen") in
  let q0 = Value.tag "sc0" Value.unit in
  let q1 k = Value.tag "sc1" (Value.int k) in
  let q2 k m = Value.tag "sc2" (Value.pair (Value.int k) (Value.int m)) in
  let q3 m = Value.tag "sc3" (Value.int m) in
  let q4 m = Value.tag "sc4" (Value.int m) in
  let q5 = Value.tag "sc5" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("sc0", _) -> Sigs.of_lists ~h:[ kg ] ()
    | Value.Tag ("sc1", _) -> Sigs.of_lists ~i:(List.map send (msgs width)) ()
    | Value.Tag ("sc2", Value.Pair (Value.Int k, Value.Int m)) ->
        Sigs.of_lists ~o:[ ct (cipher ~key:k m) ] ()
    | Value.Tag ("sc3", _) -> Sigs.of_lists ~i:[ deliver ] ()
    | Value.Tag ("sc4", Value.Int m) -> Sigs.of_lists ~o:[ recv m ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("sc0", _) when Action.equal a kg ->
        Some (Vdist.uniform (List.map q1 (keygen ~width)))
    | Value.Tag ("sc1", Value.Int k) ->
        List.find_map
          (fun m -> if Action.equal a (send m) then Some (Vdist.dirac (q2 k m)) else None)
          (msgs width)
    | Value.Tag ("sc2", Value.Pair (Value.Int k, Value.Int m))
      when Action.equal a (ct (cipher ~key:k m)) ->
        Some (Vdist.dirac (q3 m))
    | Value.Tag ("sc3", Value.Int m) when Action.equal a deliver -> Some (Vdist.dirac (q4 m))
    | Value.Tag ("sc4", Value.Int m) when Action.equal a (recv m) -> Some (Vdist.dirac q5)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:q0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("sc1", _) -> Action_set.of_list (List.map send (msgs width))
    | Value.Tag ("sc4", Value.Int m) -> Action_set.of_list [ recv m ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

let real ?(width = 1) n =
  real_with ~width n
    ~keygen:(fun ~width -> msgs width)
    ~cipher:(fun ~key m -> Primitives.xor_encrypt ~key ~width m)

(* The falsification fixture: key fixed to 0, i.e. ciphertext = message. *)
let real_leaky ?(width = 1) n =
  real_with ~width n ~keygen:(fun ~width:_ -> [ 0 ]) ~cipher:(fun ~key m -> m lor (key * 0))

(* A slightly-broken pad: the zero key is never drawn, so the ciphertext
   equal to the plaintext never occurs. The statistical distance to the
   ideal world is exactly 1/2^width — a nonzero but negligible-in-width
   slack, the canonical ε > 0 instance of Definition 4.12. *)
let real_weak ?(width = 1) n =
  real_with ~width n
    ~keygen:(fun ~width -> List.filter (fun k -> k <> 0) (msgs width))
    ~cipher:(fun ~key m -> Primitives.xor_encrypt ~key ~width m)

(* ------------------------------------------------------------ ideal side *)

let ideal ?(width = 1) n =
  let send m = acti (n ^ ".send") m in
  let leak = act (n ^ ".leak") in
  let deliver = act (n ^ ".deliver") in
  let recv m = acti (n ^ ".recv") m in
  let q0 = Value.tag "id0" Value.unit in
  let q1 m = Value.tag "id1" (Value.int m) in
  let q2 m = Value.tag "id2" (Value.int m) in
  let q3 m = Value.tag "id3" (Value.int m) in
  let q4 = Value.tag "id4" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("id0", _) -> Sigs.of_lists ~i:(List.map send (msgs width)) ()
    | Value.Tag ("id1", _) -> Sigs.of_lists ~o:[ leak ] ()
    | Value.Tag ("id2", _) -> Sigs.of_lists ~i:[ deliver ] ()
    | Value.Tag ("id3", Value.Int m) -> Sigs.of_lists ~o:[ recv m ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("id0", _) ->
        List.find_map
          (fun m -> if Action.equal a (send m) then Some (Vdist.dirac (q1 m)) else None)
          (msgs width)
    | Value.Tag ("id1", Value.Int m) when Action.equal a leak -> Some (Vdist.dirac (q2 m))
    | Value.Tag ("id2", Value.Int m) when Action.equal a deliver -> Some (Vdist.dirac (q3 m))
    | Value.Tag ("id3", Value.Int m) when Action.equal a (recv m) -> Some (Vdist.dirac q4)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:q0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("id0", _) -> Action_set.of_list (List.map send (msgs width))
    | Value.Tag ("id3", Value.Int m) -> Action_set.of_list [ recv m ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(* --------------------------------------------------- adversary & friends *)

(* Generic reporter skeleton: once armed with a ciphertext c, it owes a
   guess(c) report to the environment and a delivery to the protocol.
   It never terminates and re-arms (flags reset) on every fresh
   ciphertext: Definition 4.24's pointwise [AI_A ⊆ out(Adv)] condition
   quantifies over every reachable composite state — including states
   reached through free-input firings — so the adversary must stay
   receptive and regain its delivery capability whenever the protocol
   actually emits. *)
let reporter ~name ~inputs ~on_input ~guess ~deliver_act =
  let idle = Value.tag "rp0" Value.unit in
  let armed c g d = Value.tag "rp1" (Value.list [ Value.int c; Value.bool g; Value.bool d ]) in
  let signature q =
    match q with
    | Value.Tag ("rp0", _) -> Sigs.of_lists ~i:inputs ()
    | Value.Tag ("rp1", Value.List [ Value.Int c; Value.Bool g; Value.Bool d ]) ->
        Sigs.of_lists ~i:inputs
          ~o:((if g then [] else [ guess c ]) @ if d then [] else [ deliver_act ])
          ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("rp0", _) -> Option.map (fun c -> Vdist.dirac (armed c false false)) (on_input a)
    | Value.Tag ("rp1", Value.List [ Value.Int c; Value.Bool g; Value.Bool d ]) ->
        if (not g) && Action.equal a (guess c) then Some (Vdist.dirac (armed c true d))
        else if (not d) && Action.equal a deliver_act then Some (Vdist.dirac (armed c g true))
        else Option.map (fun c' -> Vdist.dirac (armed c' false false)) (on_input a)
    | _ -> None
  in
  Psioa.make ~name ~start:idle ~signature ~transition

let adversary ?(width = 1) ?(rename = Fun.id) n =
  let ct c = Action.make ~payload:(Value.int c) (rename (n ^ ".ct")) in
  let deliver = act (rename (n ^ ".deliver")) in
  let guess c = acti (n ^ ".guess") c in
  reporter ~name:(n ^ ".adv")
    ~inputs:(List.map ct (msgs width))
    ~on_input:(fun a ->
      List.find_map
        (fun c -> if Action.equal a (ct c) then Some c else None)
        (msgs width))
    ~guess ~deliver_act:deliver

(* The simulator draws the fake ciphertext directly in its (probabilistic)
   leak-input transition — a separate internal sampling step would open a
   window in which the Definition 4.24 delivery obligation is unmet — and
   then behaves like the reporter: never terminating, re-armed by fresh
   leaks. *)
let simulator_with ~name ~leak ~guess_name ~deliver_act ~width =
  let q0 = Value.tag "sm0" Value.unit in
  let armed c g d = Value.tag "sm2" (Value.list [ Value.int c; Value.bool g; Value.bool d ]) in
  let fresh = Vdist.uniform (List.map (fun c -> armed c false false) (msgs width)) in
  let guess c = acti guess_name c in
  let signature q =
    match q with
    | Value.Tag ("sm0", _) -> Sigs.of_lists ~i:[ leak ] ()
    | Value.Tag ("sm2", Value.List [ Value.Int c; Value.Bool g; Value.Bool d ]) ->
        Sigs.of_lists ~i:[ leak ]
          ~o:((if g then [] else [ guess c ]) @ if d then [] else [ deliver_act ])
          ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("sm0", _) when Action.equal a leak -> Some fresh
    | Value.Tag ("sm2", Value.List [ Value.Int c; Value.Bool g; Value.Bool d ]) ->
        if Action.equal a leak then Some fresh
        else if (not g) && Action.equal a (guess c) then Some (Vdist.dirac (armed c true d))
        else if (not d) && Action.equal a deliver_act then Some (Vdist.dirac (armed c g true))
        else None
    | _ -> None
  in
  Psioa.make ~name ~start:q0 ~signature ~transition

let simulator ?(width = 1) ?(rename = Fun.id) n =
  simulator_with ~name:(n ^ ".sim")
    ~leak:(act (rename (n ^ ".leak")))
    ~guess_name:(n ^ ".guess")
    ~deliver_act:(act (rename (n ^ ".deliver")))
    ~width

(* Dummy-adversary simulator for Theorem 4.30: like the simulator, but its
   "report" is the renamed ciphertext g(ct(c)) handed to the outer
   adversary, and it listens for g(deliver). *)
let dsim ?(width = 1) ~g n =
  let leak = act (n ^ ".leak") in
  let deliver = act (n ^ ".deliver") in
  let g_ct c = g.Dummy.apply (acti (n ^ ".ct") c) in
  let g_deliver = g.Dummy.apply (act (n ^ ".deliver")) in
  let fake = act (n ^ ".dsim.fake") in
  let q0 = Value.tag "ds0" Value.unit in
  let q1 = Value.tag "ds1" Value.unit in
  let q2 c = Value.tag "ds2" (Value.int c) in
  let q3 = Value.tag "ds3" Value.unit in
  let q4 = Value.tag "ds4" Value.unit in
  let q5 = Value.tag "ds5" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ds0", _) -> Sigs.of_lists ~i:[ leak ] ()
    | Value.Tag ("ds1", _) -> Sigs.of_lists ~h:[ fake ] ()
    | Value.Tag ("ds2", Value.Int c) -> Sigs.of_lists ~o:[ g_ct c ] ~i:[ g_deliver ] ()
    | Value.Tag ("ds3", _) -> Sigs.of_lists ~i:[ g_deliver ] ()
    | Value.Tag ("ds4", _) -> Sigs.of_lists ~o:[ deliver ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ds0", _) when Action.equal a leak -> Some (Vdist.dirac q1)
    | Value.Tag ("ds1", _) when Action.equal a fake ->
        Some (Vdist.uniform (List.map q2 (msgs width)))
    | Value.Tag ("ds2", Value.Int c) ->
        if Action.equal a (g_ct c) then Some (Vdist.dirac q3)
        else if Action.equal a g_deliver then Some (Vdist.dirac (q2 c))
        else None
    | Value.Tag ("ds3", _) when Action.equal a g_deliver -> Some (Vdist.dirac q4)
    | Value.Tag ("ds4", _) when Action.equal a deliver -> Some (Vdist.dirac q5)
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".dsim") ~start:q0 ~signature ~transition

(* ----------------------------------------------------------- environments *)

let env_completion ?(width = 1) ~msg n =
  let send = acti (n ^ ".send") msg in
  let recvs = List.map (fun m -> acti (n ^ ".recv") m) (msgs width) in
  let acc = act "acc" in
  let s k = Value.tag "ec" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("ec", Value.Int 0) -> Sigs.of_lists ~o:[ send ] ()
    | Value.Tag ("ec", Value.Int 1) -> Sigs.of_lists ~i:recvs ()
    | Value.Tag ("ec", Value.Int 2) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ec", Value.Int 0) when Action.equal a send -> Some (Vdist.dirac (s 1))
    | Value.Tag ("ec", Value.Int 1) when List.exists (Action.equal a) recvs ->
        Some (Vdist.dirac (s 2))
    | Value.Tag ("ec", Value.Int 2) when Action.equal a acc -> Some (Vdist.dirac (s 3))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".envc") ~start:(s 0) ~signature ~transition

let env_guess ?(width = 1) ~msg n =
  let send = acti (n ^ ".send") msg in
  let guesses = List.map (fun c -> acti (n ^ ".guess") c) (msgs width) in
  let acc = act "acc" in
  let s k = Value.tag "eg" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("eg", Value.Int 0) -> Sigs.of_lists ~o:[ send ] ()
    | Value.Tag ("eg", Value.Int 1) -> Sigs.of_lists ~i:guesses ()
    | Value.Tag ("eg", Value.Int 2) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("eg", Value.Int 0) when Action.equal a send -> Some (Vdist.dirac (s 1))
    | Value.Tag ("eg", Value.Int 1) ->
        List.find_map
          (fun c ->
            if Action.equal a (acti (n ^ ".guess") c) then
              (* Accept exactly when the adversary's report equals the
                 plaintext: the secrecy game. *)
              Some (Vdist.dirac (if c = msg then s 2 else s 3))
            else None)
          (msgs width)
    | Value.Tag ("eg", Value.Int 2) when Action.equal a acc -> Some (Vdist.dirac (s 3))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".envg") ~start:(s 0) ~signature ~transition


(* ------------------------------------------------------------- sessions *)

(* Multi-round session: each round draws a fresh pad, transports one
   message, and hands the ciphertext to the adversary. A second family
   axis (number of rounds) on top of the width axis: the per-round pads
   are independent, so secrecy composes across rounds with slack exactly
   0. States carry the round index; [phase] mirrors the single-shot
   automaton. *)
let session_real ?(width = 1) ~rounds n =
  let send m = acti (n ^ ".send") m in
  let ct c = acti (n ^ ".ct") c in
  let deliver = act (n ^ ".deliver") in
  let recv m = acti (n ^ ".recv") m in
  let kg = act (n ^ ".keygen") in
  let st r phase = Value.tag "ses" (Value.pair (Value.int r) phase) in
  let p_key = Value.tag "key" Value.unit in
  let p_hold k = Value.tag "hold" (Value.int k) in
  let p_ct k m = Value.tag "ct" (Value.pair (Value.int k) (Value.int m)) in
  let p_await m = Value.tag "await" (Value.int m) in
  let p_recv m = Value.tag "recv" (Value.int m) in
  let done_ = Value.tag "ses-done" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ses", Value.Pair (Value.Int _, phase)) -> (
        match phase with
        | Value.Tag ("key", _) -> Sigs.of_lists ~h:[ kg ] ()
        | Value.Tag ("hold", _) -> Sigs.of_lists ~i:(List.map send (msgs width)) ()
        | Value.Tag ("ct", Value.Pair (Value.Int k, Value.Int m)) ->
            Sigs.of_lists ~o:[ ct (Primitives.xor_encrypt ~key:k ~width m) ] ()
        | Value.Tag ("await", _) -> Sigs.of_lists ~i:[ deliver ] ()
        | Value.Tag ("recv", Value.Int m) -> Sigs.of_lists ~o:[ recv m ] ()
        | _ -> Sigs.empty)
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ses", Value.Pair (Value.Int r, phase)) -> (
        match phase with
        | Value.Tag ("key", _) when Action.equal a kg ->
            Some (Vdist.uniform (List.map (fun k -> st r (p_hold k)) (msgs width)))
        | Value.Tag ("hold", Value.Int k) ->
            List.find_map
              (fun m -> if Action.equal a (send m) then Some (Vdist.dirac (st r (p_ct k m))) else None)
              (msgs width)
        | Value.Tag ("ct", Value.Pair (Value.Int k, Value.Int m))
          when Action.equal a (ct (Primitives.xor_encrypt ~key:k ~width m)) ->
            Some (Vdist.dirac (st r (p_await m)))
        | Value.Tag ("await", Value.Int m) when Action.equal a deliver ->
            Some (Vdist.dirac (st r (p_recv m)))
        | Value.Tag ("recv", Value.Int m) when Action.equal a (recv m) ->
            Some (Vdist.dirac (if r + 1 < rounds then st (r + 1) p_key else done_))
        | _ -> None)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:(st 0 p_key) ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("ses", Value.Pair (_, Value.Tag ("hold", _))) ->
        Action_set.of_list (List.map send (msgs width))
    | Value.Tag ("ses", Value.Pair (_, Value.Tag ("recv", Value.Int m))) ->
        Action_set.of_list [ recv m ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

let session_ideal ?(width = 1) ~rounds n =
  let send m = acti (n ^ ".send") m in
  let leak = act (n ^ ".leak") in
  let deliver = act (n ^ ".deliver") in
  let recv m = acti (n ^ ".recv") m in
  let st r phase = Value.tag "ises" (Value.pair (Value.int r) phase) in
  let p_hold = Value.tag "hold" Value.unit in
  let p_leak m = Value.tag "leak" (Value.int m) in
  let p_await m = Value.tag "await" (Value.int m) in
  let p_recv m = Value.tag "recv" (Value.int m) in
  let done_ = Value.tag "ises-done" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ises", Value.Pair (_, phase)) -> (
        match phase with
        | Value.Tag ("hold", _) -> Sigs.of_lists ~i:(List.map send (msgs width)) ()
        | Value.Tag ("leak", _) -> Sigs.of_lists ~o:[ leak ] ()
        | Value.Tag ("await", _) -> Sigs.of_lists ~i:[ deliver ] ()
        | Value.Tag ("recv", Value.Int m) -> Sigs.of_lists ~o:[ recv m ] ()
        | _ -> Sigs.empty)
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ises", Value.Pair (Value.Int r, phase)) -> (
        match phase with
        | Value.Tag ("hold", _) ->
            List.find_map
              (fun m -> if Action.equal a (send m) then Some (Vdist.dirac (st r (p_leak m))) else None)
              (msgs width)
        | Value.Tag ("leak", Value.Int m) when Action.equal a leak ->
            Some (Vdist.dirac (st r (p_await m)))
        | Value.Tag ("await", Value.Int m) when Action.equal a deliver ->
            Some (Vdist.dirac (st r (p_recv m)))
        | Value.Tag ("recv", Value.Int m) when Action.equal a (recv m) ->
            Some (Vdist.dirac (if r + 1 < rounds then st (r + 1) p_hold else done_))
        | _ -> None)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:(st 0 p_hold) ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("ises", Value.Pair (_, Value.Tag ("hold", _))) ->
        Action_set.of_list (List.map send (msgs width))
    | Value.Tag ("ises", Value.Pair (_, Value.Tag ("recv", Value.Int m))) ->
        Action_set.of_list [ recv m ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(* Session environment: sends the same message each round and accepts only
   if the adversary's guess equals the plaintext in EVERY round — success
   probability (2^-width)^rounds in both worlds. *)
let env_session ?(width = 1) ~rounds ~msg n =
  let send = acti (n ^ ".send") msg in
  let guesses = List.map (fun c -> acti (n ^ ".guess") c) (msgs width) in
  let acc = act "acc" in
  let st r k = Value.tag "esn" (Value.pair (Value.int r) (Value.int k)) in
  let signature q =
    match q with
    | Value.Tag ("esn", Value.Pair (Value.Int _, Value.Int 0)) -> Sigs.of_lists ~o:[ send ] ()
    | Value.Tag ("esn", Value.Pair (Value.Int _, Value.Int 1)) -> Sigs.of_lists ~i:guesses ()
    | Value.Tag ("esn", Value.Pair (Value.Int _, Value.Int 2)) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("esn", Value.Pair (Value.Int r, Value.Int 0)) when Action.equal a send ->
        Some (Vdist.dirac (st r 1))
    | Value.Tag ("esn", Value.Pair (Value.Int r, Value.Int 1)) ->
        List.find_map
          (fun c ->
            if Action.equal a (acti (n ^ ".guess") c) then
              Some
                (Vdist.dirac
                   (if c <> msg then st r 3 (* failed: dead *)
                    else if r + 1 < rounds then st (r + 1) 0
                    else st r 2))
            else None)
          (msgs width)
    | Value.Tag ("esn", Value.Pair (Value.Int r, Value.Int 2)) when Action.equal a acc ->
        Some (Vdist.dirac (st r 3))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".esn") ~start:(st 0 0) ~signature ~transition
