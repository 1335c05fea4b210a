open Cdse_psioa
open Cdse_secure

let act = Action.make
let acti name m = Action.make ~payload:(Value.int m) name

let bits = [ 0; 1 ]

(* Protocol phases for the real protocol:
   p0 --pick_a(int)--> p1(a,r) --commit(h) AO--> p2 --deliver1 AI-->
   p3 --pick_b(int)--> p4(b) --b(b) AO--> p5 --deliver2 AI-->
   p6 --reveal(a) AO--> p7 --deliver3 AI--> p8 --result(a⊕b) EO--> end *)
let real_with ~pick_b n =
  let pick_a = act (n ^ ".pick_a") in
  let commit_a h = acti (n ^ ".commit") h in
  let d1 = act (n ^ ".deliver1") in
  let pick_b_act = act (n ^ ".pick_b") in
  let send_b b = acti (n ^ ".b") b in
  let d2 = act (n ^ ".deliver2") in
  let reveal a = acti (n ^ ".reveal") a in
  let d3 = act (n ^ ".deliver3") in
  let result x = acti (n ^ ".result") x in
  let p0 = Value.tag "cf0" Value.unit in
  let p k payload = Value.tag (Printf.sprintf "cf%d" k) payload in
  let ar a r = Value.pair (Value.int a) (Value.int r) in
  let arb a r b = Value.list [ Value.int a; Value.int r; Value.int b ] in
  let commitment a r = Primitives.commit ~msg:a ~nonce:r in
  let signature q =
    match q with
    | Value.Tag ("cf0", _) -> Sigs.of_lists ~h:[ pick_a ] ()
    | Value.Tag ("cf1", Value.Pair (Value.Int a, Value.Int r)) ->
        Sigs.of_lists ~o:[ commit_a (commitment a r) ] ()
    | Value.Tag ("cf2", _) -> Sigs.of_lists ~i:[ d1 ] ()
    | Value.Tag ("cf3", _) -> Sigs.of_lists ~h:[ pick_b_act ] ()
    | Value.Tag ("cf4", Value.List [ _; _; Value.Int b ]) -> Sigs.of_lists ~o:[ send_b b ] ()
    | Value.Tag ("cf5", _) -> Sigs.of_lists ~i:[ d2 ] ()
    | Value.Tag ("cf6", Value.List [ Value.Int a; _; _ ]) -> Sigs.of_lists ~o:[ reveal a ] ()
    | Value.Tag ("cf7", _) -> Sigs.of_lists ~i:[ d3 ] ()
    | Value.Tag ("cf8", Value.List [ Value.Int a; _; Value.Int b ]) ->
        Sigs.of_lists ~o:[ result (a lxor b) ] ()
    | _ -> Sigs.empty
  in
  let transition q a' =
    match q with
    | Value.Tag ("cf0", _) when Action.equal a' pick_a ->
        Some (Vdist.uniform (List.concat_map (fun a -> List.map (fun r -> p 1 (ar a r)) bits) bits))
    | Value.Tag ("cf1", Value.Pair (Value.Int a, Value.Int r))
      when Action.equal a' (commit_a (commitment a r)) ->
        Some (Vdist.dirac (p 2 (ar a r)))
    | Value.Tag ("cf2", payload) when Action.equal a' d1 -> Some (Vdist.dirac (p 3 payload))
    | Value.Tag ("cf3", Value.Pair (Value.Int a, Value.Int r)) when Action.equal a' pick_b_act ->
        Some (Vdist.uniform (List.map (fun b -> p 4 (arb a r b)) (pick_b ~a)))
    | Value.Tag ("cf4", (Value.List [ _; _; Value.Int b ] as payload))
      when Action.equal a' (send_b b) ->
        Some (Vdist.dirac (p 5 payload))
    | Value.Tag ("cf5", payload) when Action.equal a' d2 -> Some (Vdist.dirac (p 6 payload))
    | Value.Tag ("cf6", (Value.List [ Value.Int a; _; _ ] as payload))
      when Action.equal a' (reveal a) ->
        Some (Vdist.dirac (p 7 payload))
    | Value.Tag ("cf7", payload) when Action.equal a' d3 -> Some (Vdist.dirac (p 8 payload))
    | Value.Tag ("cf8", Value.List [ Value.Int a; _; Value.Int b ])
      when Action.equal a' (result (a lxor b)) ->
        Some (Vdist.dirac (Value.tag "cf9" Value.unit))
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:p0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("cf8", Value.List [ Value.Int a; _; Value.Int b ]) ->
        Action_set.of_list [ result (a lxor b) ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

let real n = real_with ~pick_b:(fun ~a:_ -> bits) n

(* B "sees through" the commitment and echoes a: result always 0. *)
let real_cheating n = real_with ~pick_b:(fun ~a -> [ a ]) n

let ideal n =
  let toss = act (n ^ ".toss") in
  let go = act (n ^ ".go") in
  let deliver = act (n ^ ".deliver") in
  let result x = acti (n ^ ".result") x in
  let q0 = Value.tag "ci0" Value.unit in
  let q1 x = Value.tag "ci1" (Value.int x) in
  let q2 x = Value.tag "ci2" (Value.int x) in
  let q3 x = Value.tag "ci3" (Value.int x) in
  let q4 = Value.tag "ci4" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("ci0", _) -> Sigs.of_lists ~h:[ toss ] ()
    | Value.Tag ("ci1", _) -> Sigs.of_lists ~o:[ go ] ()
    | Value.Tag ("ci2", _) -> Sigs.of_lists ~i:[ deliver ] ()
    | Value.Tag ("ci3", Value.Int x) -> Sigs.of_lists ~o:[ result x ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ci0", _) when Action.equal a toss -> Some (Vdist.uniform (List.map q1 bits))
    | Value.Tag ("ci1", Value.Int x) when Action.equal a go -> Some (Vdist.dirac (q2 x))
    | Value.Tag ("ci2", Value.Int x) when Action.equal a deliver -> Some (Vdist.dirac (q3 x))
    | Value.Tag ("ci3", Value.Int x) when Action.equal a (result x) -> Some (Vdist.dirac q4)
    | _ -> None
  in
  let psioa = Psioa.make ~name:n ~start:q0 ~signature ~transition in
  let eact q =
    match q with
    | Value.Tag ("ci3", Value.Int x) -> Action_set.of_list [ result x ]
    | _ -> Action_set.empty
  in
  Structured.make psioa ~eact

(* Passive scheduler: a single owed-delivery slot, overwritten by the most
   recent protocol message (commit owes deliver1, b owes deliver2, reveal
   owes deliver3). It never terminates and stays receptive: Definition
   4.24's pointwise AI ⊆ out(Adv) condition quantifies over all reachable
   composite states, including free-input paths, so the obligation must be
   re-armed whenever the protocol actually emits. *)
let adversary n =
  let d k = act (Printf.sprintf "%s.deliver%d" n k) in
  (* Owed deliveries as a set: a free-firing input must not overwrite an
     obligation that the protocol still awaits. *)
  let owes ks =
    Value.tag "cfa" (Value.list (List.map Value.int (List.sort_uniq Int.compare ks)))
  in
  let owed_of q =
    match q with
    | Value.Tag ("cfa", Value.List ks) ->
        List.filter_map (function Value.Int k -> Some k | _ -> None) ks
    | _ -> []
  in
  (* Index of the delivery owed after a given message, matched by name. *)
  let owed_by a =
    let base = Action.name a in
    List.find_map
      (fun (suffix, k) -> if String.equal base (n ^ suffix) then Some k else None)
      [ (".commit", 1); (".b", 2); (".reveal", 3) ]
  in
  (* Payload universe actually used by the protocol: commitments of
     (a,r) ∈ {0,1}², bits, reveals. *)
  let commits =
    List.sort_uniq Int.compare
      (List.concat_map (fun a -> List.map (fun r -> Primitives.commit ~msg:a ~nonce:r) bits) bits)
  in
  let inputs =
    List.map (fun h -> Action.make ~payload:(Value.int h) (n ^ ".commit")) commits
    @ List.map (fun b -> Action.make ~payload:(Value.int b) (n ^ ".b")) bits
    @ List.map (fun a -> Action.make ~payload:(Value.int a) (n ^ ".reveal")) bits
  in
  let signature q =
    match q with
    | Value.Tag ("cfa", _) -> Sigs.of_lists ~i:inputs ~o:(List.map d (owed_of q)) ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("cfa", _) -> (
        let owed = owed_of q in
        match owed_by a with
        | Some j -> Some (Vdist.dirac (owes (j :: owed)))
        | None ->
            List.find_map
              (fun k ->
                if Action.equal a (d k) then
                  Some (Vdist.dirac (owes (List.filter (fun x -> x <> k) owed)))
                else None)
              owed)
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".adv") ~start:(owes []) ~signature ~transition

(* The ideal-side simulator only needs to consume go and deliver; like the
   adversary it never terminates and re-arms on every go. *)
let simulator n =
  let go = act (n ^ ".go") in
  let deliver = act (n ^ ".deliver") in
  let q0 = Value.tag "cfs" (Value.int 0) in
  let q1 = Value.tag "cfs" (Value.int 1) in
  let signature q =
    match q with
    | Value.Tag ("cfs", Value.Int 0) -> Sigs.of_lists ~i:[ go ] ()
    | Value.Tag ("cfs", Value.Int 1) -> Sigs.of_lists ~i:[ go ] ~o:[ deliver ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("cfs", Value.Int 0) when Action.equal a go -> Some (Vdist.dirac q1)
    | Value.Tag ("cfs", Value.Int 1) ->
        if Action.equal a go then Some (Vdist.dirac q1)
        else if Action.equal a deliver then Some (Vdist.dirac q0)
        else None
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".sim") ~start:q0 ~signature ~transition

let env_result n =
  let results = List.map (fun x -> acti (n ^ ".result") x) bits in
  let acc = act "acc" in
  let s k = Value.tag "cfe" (Value.int k) in
  let signature q =
    match q with
    | Value.Tag ("cfe", Value.Int 0) -> Sigs.of_lists ~i:results ()
    | Value.Tag ("cfe", Value.Int 1) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("cfe", Value.Int 0) ->
        if Action.equal a (acti (n ^ ".result") 0) then Some (Vdist.dirac (s 1))
        else if Action.equal a (acti (n ^ ".result") 1) then Some (Vdist.dirac (s 2))
        else None
    | Value.Tag ("cfe", Value.Int 1) when Action.equal a acc -> Some (Vdist.dirac (s 2))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".env") ~start:(s 0) ~signature ~transition
