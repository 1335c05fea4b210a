(** Structured fixtures for the secure layer tests.

    The running protocol is a tiny adversarially-scheduled relay:

      env --in(m)--> [proto] --leak(m)--> adversary
      adversary --deliver--> [proto] --out(m)--> env

    [in]/[out] are environment actions, [leak]/[deliver] adversary actions,
    so the fixture exercises both directions of the attack surface — which
    is what the dummy-adversary forwarding of Lemma D.1 needs. *)

open Cdse_psioa
open Cdse_secure

let act = Workloads.act

let q_idle = Value.tag "idle" Value.unit
let q_got m = Value.tag "got" (Value.int m)
let q_sent m = Value.tag "sent" (Value.int m)
let q_done m = Value.tag "done" (Value.int m)
let q_final = Value.tag "final" Value.unit

(** The relay protocol as a structured PSIOA over alphabet [0..alpha-1]. *)
let relay ?(alphabet = [ 0 ]) name =
  let in_ m = act ~payload:(Value.int m) (name ^ ".in") in
  let leak m = act ~payload:(Value.int m) (name ^ ".leak") in
  let deliver = act (name ^ ".deliver") in
  let out m = act ~payload:(Value.int m) (name ^ ".out") in
  let signature q =
    match q with
    | Value.Tag ("idle", _) -> Sigs.of_lists ~i:(List.map in_ alphabet) ()
    | Value.Tag ("got", Value.Int m) -> Sigs.of_lists ~o:[ leak m ] ()
    | Value.Tag ("sent", _) -> Sigs.of_lists ~i:[ deliver ] ()
    | Value.Tag ("done", Value.Int m) -> Sigs.of_lists ~o:[ out m ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("idle", _) ->
        List.find_map
          (fun m -> if Action.equal a (in_ m) then Some (Vdist.dirac (q_got m)) else None)
          alphabet
    | Value.Tag ("got", Value.Int m) when Action.equal a (leak m) -> Some (Vdist.dirac (q_sent m))
    | Value.Tag ("sent", Value.Int m) when Action.equal a deliver -> Some (Vdist.dirac (q_done m))
    | Value.Tag ("done", Value.Int m) when Action.equal a (out m) -> Some (Vdist.dirac q_final)
    | _ -> None
  in
  let psioa = Psioa.make ~name ~start:q_idle ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("idle", _) -> Action_set.of_list (List.map in_ alphabet)
    | Value.Tag ("done", Value.Int m) -> Action_set.of_list [ out m ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(** Forwarding adversary speaking the (possibly renamed) adversary alphabet
    of a relay: receives leaks, replies with deliver. [rename] is applied
    to every adversary action name (use [Fun.id] for the unrenamed
    alphabet). *)
let relay_adversary ?(alphabet = [ 0 ]) ~proto_name ~rename name =
  let leak m = Action.with_name rename (act ~payload:(Value.int m) (proto_name ^ ".leak")) in
  let deliver = Action.with_name rename (act (proto_name ^ ".deliver")) in
  let waiting = Value.tag "adv-wait" Value.unit in
  let armed = Value.tag "adv-armed" Value.unit in
  let signature q =
    if Value.equal q waiting then Sigs.of_lists ~i:(List.map leak alphabet) ()
    else Sigs.of_lists ~i:(List.map leak alphabet) ~o:[ deliver ] ()
  in
  let transition q a =
    if List.exists (fun m -> Action.equal a (leak m)) alphabet then Some (Vdist.dirac armed)
    else if Value.equal q armed && Action.equal a deliver then Some (Vdist.dirac waiting)
    else None
  in
  Psioa.make ~name ~start:waiting ~signature ~transition

(** Environment: sends [proto.in m0], waits for any [proto.out], then
    announces acc. *)
let relay_env ?(alphabet = [ 0 ]) ?(m0 = 0) ~proto_name name =
  let in0 = act ~payload:(Value.int m0) (proto_name ^ ".in") in
  let outs = List.map (fun m -> act ~payload:(Value.int m) (proto_name ^ ".out")) alphabet in
  let acc = act "acc" in
  let s k = Value.tag "env" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("env", Value.Int 0) -> Sigs.of_lists ~o:[ in0 ] ()
    | Value.Tag ("env", Value.Int 1) -> Sigs.of_lists ~i:outs ()
    | Value.Tag ("env", Value.Int 2) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("env", Value.Int 0) when Action.equal a in0 -> Some (Vdist.dirac (s 1))
    | Value.Tag ("env", Value.Int 1) when List.exists (Action.equal a) outs ->
        Some (Vdist.dirac (s 2))
    | Value.Tag ("env", Value.Int 2) when Action.equal a acc -> Some (Vdist.dirac (s 3))
    | _ -> None
  in
  Psioa.make ~name ~start:(s 0) ~signature ~transition

(** A bad "adversary" that also listens to the protocol's environment
    actions — rejected by Definition 4.24. *)
let eact_touching_adversary ~proto_name name =
  let out0 = act ~payload:(Value.int 0) (proto_name ^ ".out") in
  Psioa.make ~name ~start:Value.unit
    ~signature:(fun _ -> Sigs.of_lists ~i:[ out0 ] ())
    ~transition:(fun q a -> if Action.equal a out0 then Some (Vdist.dirac q) else None)

module Fault = Cdse_fault.Fault
module Secure_channel = Cdse_crypto.Secure_channel
module Committee = Cdse_dynamic.Committee

let compromised_otp ~base names =
  let wrapped n =
    Fault.compromise
      ~adversarial:(Structured.psioa (Secure_channel.real_leaky n))
      (Structured.psioa (base n))
  in
  let inj = Fault.injector ~faults:(List.map Fault.compromise_action names) () in
  let sys = Compose.parallel (inj :: List.map wrapped names) in
  let eact q =
    Sigs.filter_ext
      (fun a ->
        let base = Action.name a in
        List.exists
          (fun n -> String.equal base (n ^ ".send") || String.equal base (n ^ ".recv"))
          names)
      (Psioa.signature sys q)
  in
  Structured.make sys ~eact

let compromised_committee () =
  let cmt =
    Committee.build ~max_validators:3 ~blocks:1 ~quorum:(`At_least 2)
      ~wrap_validator:(fun _ v -> Fault.compromise ~adversarial:(Adversary.silent_takeover v) v)
      "cmt"
  in
  let inj =
    Fault.injector
      ~faults:
        (List.init 3 (fun i -> Fault.compromise_action (Committee.validator_name "cmt" i)))
      ()
  in
  Committee.structured_psioa (Compose.pair inj (Cdse_config.Pca.psioa cmt)) "cmt"

let is_retire a =
  let name = Action.name a in
  String.length name >= 10 && String.equal (String.sub name 0 10) "cmt.retire"
