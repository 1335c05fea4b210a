open Cdse_psioa
open Cdse_secure

let act = Action.make
let acti name v = Action.make ~payload:(Value.int v) name

(* The message alphabet. *)
let msgs = [ 0; 1 ]
let receivers k = List.init k Fun.id

let pkt n i m = acti (Printf.sprintf "%s.pkt%d" n i) m
let rel n i = act (Printf.sprintf "%s.rel%d" n i)
let deliver n i m = acti (Printf.sprintf "%s.deliver%d" n i) m
let send n m = acti (n ^ ".send") m
let leak n m = acti (n ^ ".leak") m

(* State payload: message + per-receiver phase. Phase 0: packet not yet
   emitted (real only); 1: awaiting release; 2: released, delivery owed;
   3: delivered. Packets are emitted in ascending receiver order; releases
   and deliveries happen in adversary-chosen order. *)
let phases_value m ph = Value.pair (Value.int m) (Value.list (List.map Value.int ph))

let parse_phases = function
  | Value.Pair (Value.Int m, Value.List ph) ->
      Some (m, List.map (function Value.Int p -> p | _ -> 0) ph)
  | _ -> None

let protocol ~leaky ~k n =
  let idle = Value.tag "bc-idle" Value.unit in
  let st m ph = Value.tag "bc" (phases_value m ph) in
  let parse q = match q with Value.Tag ("bc", p) -> parse_phases p | _ -> None in
  let set ph i v = List.mapi (fun j p -> if j = i then v else p) ph in
  let signature q =
    if Value.equal q idle then Sigs.of_lists ~i:(List.map (send n) msgs) ()
    else
      match parse q with
      | None -> Sigs.empty
      | Some (m, ph) ->
          (* Emit packets ascending: only the least phase-0 receiver's
             packet is an output. *)
          let next_pkt =
            List.find_map (fun i -> if List.nth ph i = 0 then Some i else None) (receivers k)
          in
          let outs =
            (match next_pkt with
            | Some i -> [ (if leaky then pkt n i m else pkt n i 0) ]
            | None -> [])
            @ List.filter_map
                (fun i -> if List.nth ph i = 2 then Some (deliver n i m) else None)
                (receivers k)
          in
          let ins =
            (* Releases are accepted once this receiver's packet is out. *)
            List.filter_map (fun i -> if List.nth ph i = 1 then Some (rel n i) else None)
              (receivers k)
          in
          if outs = [] && ins = [] then Sigs.empty else Sigs.of_lists ~i:ins ~o:outs ()
  in
  let transition q a =
    if Value.equal q idle then
      List.find_map
        (fun m ->
          if Action.equal a (send n m) then Some (Vdist.dirac (st m (List.map (fun _ -> 0) (receivers k))))
          else None)
        msgs
    else
      match parse q with
      | None -> None
      | Some (m, ph) ->
          List.find_map
            (fun i ->
              let p = List.nth ph i in
              if p = 0 && Action.equal a (if leaky then pkt n i m else pkt n i 0) then
                Some (Vdist.dirac (st m (set ph i 1)))
              else if p = 1 && Action.equal a (rel n i) then
                Some (Vdist.dirac (st m (set ph i 2)))
              else if p = 2 && Action.equal a (deliver n i m) then
                Some (Vdist.dirac (st m (set ph i 3)))
              else None)
            (receivers k)
  in
  let psioa = Psioa.make ~name:n ~start:idle ~signature ~transition in
  let eact q =
    if Value.equal q idle then Action_set.of_list (List.map (send n) msgs)
    else
      match parse q with
      | None -> Action_set.empty
      | Some (m, ph) ->
          Action_set.of_list
            (List.filter_map
               (fun i -> if List.nth ph i = 2 then Some (deliver n i m) else None)
               (receivers k))
  in
  Structured.make psioa ~eact

let real ~k n = protocol ~leaky:true ~k n

(* The ideal functionality: one leak of the message, then the same release
   interface. Encoded as the same protocol with packets replaced by a
   single leak: receiver phases start at 1 after the leak. *)
let ideal ~k n =
  let idle = Value.tag "bci-idle" Value.unit in
  let leaking m = Value.tag "bci-leak" (Value.int m) in
  let st m ph = Value.tag "bci" (phases_value m ph) in
  let parse q = match q with Value.Tag ("bci", p) -> parse_phases p | _ -> None in
  let set ph i v = List.mapi (fun j p -> if j = i then v else p) ph in
  let signature q =
    if Value.equal q idle then Sigs.of_lists ~i:(List.map (send n) msgs) ()
    else
      match q with
      | Value.Tag ("bci-leak", Value.Int m) -> Sigs.of_lists ~o:[ leak n m ] ()
      | _ -> (
          match parse q with
          | None -> Sigs.empty
          | Some (m, ph) ->
              let outs =
                List.filter_map
                  (fun i -> if List.nth ph i = 2 then Some (deliver n i m) else None)
                  (receivers k)
              in
              let ins =
                List.filter_map (fun i -> if List.nth ph i = 1 then Some (rel n i) else None)
                  (receivers k)
              in
              if outs = [] && ins = [] then Sigs.empty else Sigs.of_lists ~i:ins ~o:outs ())
  in
  let transition q a =
    if Value.equal q idle then
      List.find_map
        (fun m -> if Action.equal a (send n m) then Some (Vdist.dirac (leaking m)) else None)
        msgs
    else
      match q with
      | Value.Tag ("bci-leak", Value.Int m) when Action.equal a (leak n m) ->
          Some (Vdist.dirac (st m (List.map (fun _ -> 1) (receivers k))))
      | _ -> (
          match parse q with
          | None -> None
          | Some (m, ph) ->
              List.find_map
                (fun i ->
                  let p = List.nth ph i in
                  if p = 1 && Action.equal a (rel n i) then Some (Vdist.dirac (st m (set ph i 2)))
                  else if p = 2 && Action.equal a (deliver n i m) then
                    Some (Vdist.dirac (st m (set ph i 3)))
                  else None)
                (receivers k))
  in
  let psioa = Psioa.make ~name:n ~start:idle ~signature ~transition in
  let eact q =
    if Value.equal q idle then Action_set.of_list (List.map (send n) msgs)
    else
      match parse q with
      | None -> Action_set.empty
      | Some (m, ph) ->
          Action_set.of_list
            (List.filter_map
               (fun i -> if List.nth ph i = 2 then Some (deliver n i m) else None)
               (receivers k))
  in
  Structured.make psioa ~eact

(* Release-scheduler: owes a SET of releases, all offered simultaneously.
   Definition 4.24's pointwise [AI_A ⊆ out(Adv)] makes anything weaker
   unsound: the protocol may accept any pending release, so the adversary
   must offer them all (the scheduler then resolves the order — the
   paper's model of distributed scheduling). Stays permanently receptive;
   free-input pre-arming is repaired by re-observation, as in the other
   protocol adversaries. *)
let release_machine ~name ~inputs ~observe ~rel_of =
  let owed_value owed =
    Value.tag "bca" (Value.list (List.map Value.int (List.sort_uniq Int.compare owed)))
  in
  let parse q =
    match q with
    | Value.Tag ("bca", Value.List l) -> List.filter_map (function Value.Int i -> Some i | _ -> None) l
    | _ -> []
  in
  let signature q =
    Sigs.of_lists ~i:inputs ~o:(List.map rel_of (parse q)) ()
  in
  let transition q a =
    let owed = parse q in
    match observe a with
    | Some new_rels -> Some (Vdist.dirac (owed_value (new_rels @ owed)))
    | None ->
        List.find_map
          (fun i ->
            if Action.equal a (rel_of i) then
              Some (Vdist.dirac (owed_value (List.filter (fun j -> j <> i) owed)))
            else None)
          owed
  in
  Psioa.make ~name ~start:(owed_value []) ~signature ~transition

let adversary ~k n =
  let inputs = List.concat_map (fun i -> List.map (pkt n i) msgs) (receivers k) in
  release_machine ~name:(n ^ ".adv") ~inputs
    ~observe:(fun a ->
      (* Each observed packet owes that receiver's release. *)
      List.find_map
        (fun i ->
          if List.exists (fun m -> Action.equal a (pkt n i m)) msgs then Some [ i ]
          else None)
        (receivers k))
    ~rel_of:(rel n)

let simulator ~k n =
  release_machine ~name:(n ^ ".sim")
    ~inputs:(List.map (leak n) msgs)
    ~observe:(fun a ->
      if List.exists (fun m -> Action.equal a (leak n m)) msgs then Some (receivers k)
      else None)
    ~rel_of:(rel n)

let env_all_delivered ~k ~msg n =
  let delivers = List.concat_map (fun i -> List.map (deliver n i) msgs) (receivers k) in
  let acc = act "acc" in
  let s j = Value.tag "bce" (Value.int j) in
  let signature q =
    match q with
    | Value.Tag ("bce", Value.Int 0) -> Sigs.of_lists ~o:[ send n msg ] ()
    | Value.Tag ("bce", Value.Int j) when j <= k -> Sigs.of_lists ~i:delivers ()
    | Value.Tag ("bce", Value.Int j) when j = k + 1 -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("bce", Value.Int 0) when Action.equal a (send n msg) -> Some (Vdist.dirac (s 1))
    | Value.Tag ("bce", Value.Int j) when j <= k && List.exists (Action.equal a) delivers ->
        Some (Vdist.dirac (s (j + 1)))
    | Value.Tag ("bce", Value.Int j) when j = k + 1 && Action.equal a acc ->
        Some (Vdist.dirac (s (k + 2)))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".env") ~start:(s 0) ~signature ~transition
