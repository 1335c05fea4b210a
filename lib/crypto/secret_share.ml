open Cdse_psioa
open Cdse_secure

let act = Action.make
let acti name v = Action.make ~payload:(Value.int v) name

(* One-bit secrets. *)
let width = 1
let secrets = List.init (1 lsl width) Fun.id

(* Dealer skeleton: input secret, internal split, leak the selected share,
   await acknowledgement, announce completion. [share_of ~r ~s] selects
   what the adversary sees. *)
let dealer ~share_of n =
  let input s = acti (n ^ ".input") s in
  let split = act (n ^ ".split") in
  let share v = acti (n ^ ".share") v in
  let ok = act (n ^ ".ok") in
  let done_ = act (n ^ ".done") in
  let q0 = Value.tag "ssd0" Value.unit in
  let q1 s = Value.tag "ssd1" (Value.int s) in
  let q2 v = Value.tag "ssd2" (Value.int v) in
  let q3 = Value.tag "ssd3" Value.unit in
  let q4 = Value.tag "ssd4" Value.unit in
  let q5 = Value.tag "ssd5" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ssd0", _) -> Sigs.of_lists ~i:(List.map input secrets) ()
    | Value.Tag ("ssd1", _) -> Sigs.of_lists ~h:[ split ] ()
    | Value.Tag ("ssd2", Value.Int v) -> Sigs.of_lists ~o:[ share v ] ()
    | Value.Tag ("ssd3", _) -> Sigs.of_lists ~i:[ ok ] ()
    | Value.Tag ("ssd4", _) -> Sigs.of_lists ~o:[ done_ ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ssd0", _) ->
        List.find_map
          (fun s -> if Action.equal a (input s) then Some (Vdist.dirac (q1 s)) else None)
          secrets
    | Value.Tag ("ssd1", Value.Int s) when Action.equal a split ->
        Some (Vdist.uniform (List.map (fun r -> q2 (share_of ~r ~s)) secrets))
    | Value.Tag ("ssd2", Value.Int v) when Action.equal a (share v) -> Some (Vdist.dirac q3)
    | Value.Tag ("ssd3", _) when Action.equal a ok -> Some (Vdist.dirac q4)
    | Value.Tag ("ssd4", _) when Action.equal a done_ -> Some (Vdist.dirac q5)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:q0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("ssd0", _) -> Action_set.of_list (List.map input secrets)
    | Value.Tag ("ssd4", _) -> Action_set.of_list [ done_ ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

let real ?(corrupt = `First) n =
  let share_of ~r ~s =
    match corrupt with
    | `First -> r
    | `Second -> Primitives.xor_encrypt ~key:r ~width s
  in
  dealer ~share_of n

let transparent n = dealer ~share_of:(fun ~r:_ ~s -> s) n

let ideal n =
  let input s = acti (n ^ ".input") s in
  let leak = act (n ^ ".leak") in
  let ok = act (n ^ ".ok") in
  let done_ = act (n ^ ".done") in
  let q0 = Value.tag "ssi0" Value.unit in
  let q1 = Value.tag "ssi1" Value.unit in
  let q2 = Value.tag "ssi2" Value.unit in
  let q3 = Value.tag "ssi3" Value.unit in
  let q4 = Value.tag "ssi4" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ssi0", _) -> Sigs.of_lists ~i:(List.map input secrets) ()
    | Value.Tag ("ssi1", _) -> Sigs.of_lists ~o:[ leak ] ()
    | Value.Tag ("ssi2", _) -> Sigs.of_lists ~i:[ ok ] ()
    | Value.Tag ("ssi3", _) -> Sigs.of_lists ~o:[ done_ ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ssi0", _) when List.exists (fun s -> Action.equal a (input s)) secrets ->
        Some (Vdist.dirac q1)
    | Value.Tag ("ssi1", _) when Action.equal a leak -> Some (Vdist.dirac q2)
    | Value.Tag ("ssi2", _) when Action.equal a ok -> Some (Vdist.dirac q3)
    | Value.Tag ("ssi3", _) when Action.equal a done_ -> Some (Vdist.dirac q4)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:q0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("ssi0", _) -> Action_set.of_list (List.map input secrets)
    | Value.Tag ("ssi3", _) -> Action_set.of_list [ done_ ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(* The secure-channel reporter/simulator skeletons carry over verbatim:
   share plays the role of the ciphertext, ok of the delivery. *)
let adversary n =
  let share v = acti (n ^ ".share") v in
  Secure_channel.reporter ~name:(n ^ ".adv")
    ~inputs:(List.map share secrets)
    ~on_input:(fun a ->
      List.find_map (fun v -> if Action.equal a (share v) then Some v else None) secrets)
    ~guess:(fun v -> acti (n ^ ".guess") v)
    ~deliver_act:(act (n ^ ".ok"))

let simulator n =
  Secure_channel.simulator_with ~name:(n ^ ".sim") ~leak:(act (n ^ ".leak"))
    ~guess_name:(n ^ ".guess") ~deliver_act:(act (n ^ ".ok")) ~width

let env_guess ~secret n =
  let input = acti (n ^ ".input") secret in
  let guesses = List.map (fun v -> acti (n ^ ".guess") v) secrets in
  let acc = act "acc" in
  let s k = Value.tag "sse" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("sse", Value.Int 0) -> Sigs.of_lists ~o:[ input ] ()
    | Value.Tag ("sse", Value.Int 1) -> Sigs.of_lists ~i:guesses ()
    | Value.Tag ("sse", Value.Int 2) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("sse", Value.Int 0) when Action.equal a input -> Some (Vdist.dirac (s 1))
    | Value.Tag ("sse", Value.Int 1) ->
        List.find_map
          (fun v ->
            if Action.equal a (acti (n ^ ".guess") v) then
              Some (Vdist.dirac (if v = secret then s 2 else s 3))
            else None)
          secrets
    | Value.Tag ("sse", Value.Int 2) when Action.equal a acc -> Some (Vdist.dirac (s 3))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".envg") ~start:(s 0) ~signature ~transition


(* Dummy-adversary simulator for Theorem 4.30 (mixed-protocol composition):
   converts the ideal leak into a fake share republished on the renamed
   interface g(share(v)), and forwards g(ok) into the functionality. *)
let dsim ~g n =
  let leak = act (n ^ ".leak") in
  let ok = act (n ^ ".ok") in
  let g_share v = g.Dummy.apply (acti (n ^ ".share") v) in
  let g_ok = g.Dummy.apply (act (n ^ ".ok")) in
  let q0 = Value.tag "sds0" Value.unit in
  let q2 v = Value.tag "sds2" (Value.int v) in
  let q3 = Value.tag "sds3" Value.unit in
  let q4 = Value.tag "sds4" Value.unit in
  let q5 = Value.tag "sds5" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("sds0", _) -> Sigs.of_lists ~i:[ leak ] ()
    | Value.Tag ("sds2", Value.Int v) -> Sigs.of_lists ~o:[ g_share v ] ~i:[ g_ok ] ()
    | Value.Tag ("sds3", _) -> Sigs.of_lists ~i:[ g_ok ] ()
    | Value.Tag ("sds4", _) -> Sigs.of_lists ~o:[ ok ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("sds0", _) when Action.equal a leak ->
        Some (Vdist.uniform (List.map q2 secrets))
    | Value.Tag ("sds2", Value.Int v) ->
        if Action.equal a (g_share v) then Some (Vdist.dirac q3)
        else if Action.equal a g_ok then Some (Vdist.dirac (q2 v))
        else None
    | Value.Tag ("sds3", _) when Action.equal a g_ok -> Some (Vdist.dirac q4)
    | Value.Tag ("sds4", _) when Action.equal a ok -> Some (Vdist.dirac q5)
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".dsim") ~start:q0 ~signature ~transition
