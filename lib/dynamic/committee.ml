open Cdse_psioa
open Cdse_config

let acti name v = Action.make ~payload:(Value.int v) name

let submit n b = acti (n ^ ".submit") b
let commit n b = acti (n ^ ".commit") b
let add n i = Action.make (Printf.sprintf "%s.add%d" n i)
let retire n i = Action.make (Printf.sprintf "%s.retire%d" n i)
let propose n b = acti (n ^ ".propose") b
let vote n i b = acti (Printf.sprintf "%s.vote%d" n i) b
let crash n i = Action.make (Printf.sprintf "%s.crash%d" n i)
let validator_name n i = Printf.sprintf "%s.val%d" n i

(* ------------------------------------------------------------ validator *)

(* idle → (propose b) → voting b → (vote) → idle; (retire) → dead. *)
let validator ~n ~blocks i =
  let idle = Value.tag "v-idle" Value.unit in
  let voting b = Value.tag "v-voting" (Value.int b) in
  let dead = Value.tag "v-dead" Value.unit in
  let proposals = List.init blocks (propose n) in
  (* [crash] is a second destruction path, accepted in every live phase —
     unlike [retire] it is not chair-initiated bookkeeping but a fault the
     chair never observes; the quorum variant must tolerate it. *)
  let signature q =
    match q with
    | Value.Tag ("v-idle", _) -> Sigs.of_lists ~i:(retire n i :: crash n i :: proposals) ()
    | Value.Tag ("v-voting", Value.Int b) ->
        Sigs.of_lists ~i:[ retire n i; crash n i ] ~o:[ vote n i b ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("v-idle", _) ->
        if Action.equal a (retire n i) || Action.equal a (crash n i) then Some (Vdist.dirac dead)
        else
          List.find_map
            (fun b -> if Action.equal a (propose n b) then Some (Vdist.dirac (voting b)) else None)
            (List.init blocks Fun.id)
    | Value.Tag ("v-voting", Value.Int b) ->
        if Action.equal a (vote n i b) then Some (Vdist.dirac idle)
        else if Action.equal a (retire n i) || Action.equal a (crash n i) then
          Some (Vdist.dirac dead)
        else None
    | _ -> None
  in
  Psioa.make ~name:(validator_name n i) ~start:idle ~signature ~transition

(* ----------------------------------------------------------------- chair *)

(* State: members (validator indices), next fresh index, committed blocks,
   phase (idle | collecting (block, votes)). The chair is the creating
   automaton: each addᵢ creates validator i through the PCA's created
   mapping; retireᵢ moves validator i to its dead state and configuration
   reduction removes it. Reconfiguration only happens while idle.

   [quorum] is the commit threshold: [`All] demands every member's vote
   (the unanimous committee); [`At_least t] commits as soon as [t] votes
   arrived — the crash-tolerant variant, which also tolerates validators
   dying mid-round ([crash] inputs are accepted in every phase). *)
let chair ?(quorum = `All) ~n ~max_validators ~blocks () =
  let ints l = Value.list (List.map Value.int l) in
  let of_ints = function
    | Value.List l -> List.filter_map (function Value.Int i -> Some i | _ -> None) l
    | _ -> []
  in
  let idle_phase = Value.tag "idle" Value.unit in
  let collecting b votes = Value.tag "collecting" (Value.pair (Value.int b) (ints votes)) in
  let st ~members ~fresh ~log ~phase =
    Value.tag "chair" (Value.list [ ints members; Value.int fresh; ints log; phase ])
  in
  let parse q =
    match q with
    | Value.Tag ("chair", Value.List [ m; Value.Int fresh; lg; phase ]) ->
        Some (of_ints m, fresh, of_ints lg, phase)
    | _ -> None
  in
  let block_ids = List.init blocks Fun.id in
  let signature q =
    match parse q with
    | None -> Sigs.empty
    | Some (members, fresh, _, phase) -> (
        match phase with
        | Value.Tag ("idle", _) ->
            let adds = if fresh < max_validators then [ add n fresh ] else [] in
            let retires = List.map (retire n) members in
            Sigs.of_lists ~i:(List.map (submit n) block_ids) ~o:(adds @ retires) ()
        | Value.Tag ("collecting", Value.Pair (Value.Int b, votes_v)) ->
            let votes = of_ints votes_v in
            let missing = List.filter (fun i -> not (List.mem i votes)) members in
            let reached =
              match quorum with
              | `All -> missing = []
              | `At_least t -> List.length votes >= t
            in
            (* Under a threshold quorum, late votes remain acceptable even
               after the quorum is reached (they race with the commit). *)
            Sigs.of_lists
              ~i:(List.map (fun i -> vote n i b) missing)
              ~o:(if reached then [ commit n b ] else [])
              ()
        | Value.Tag ("proposing", Value.Int b) -> Sigs.of_lists ~o:[ propose n b ] ()
        | _ -> Sigs.empty)
  in
  let transition q a =
    match parse q with
    | None -> None
    | Some (members, fresh, log, phase) -> (
        match phase with
        | Value.Tag ("idle", _) ->
            if fresh < max_validators && Action.equal a (add n fresh) then
              Some
                (Vdist.dirac
                   (st ~members:(members @ [ fresh ]) ~fresh:(fresh + 1) ~log ~phase:idle_phase))
            else (
              match
                List.find_opt (fun i -> Action.equal a (retire n i)) members
              with
              | Some i ->
                  Some
                    (Vdist.dirac
                       (st
                          ~members:(List.filter (fun j -> j <> i) members)
                          ~fresh ~log ~phase:idle_phase))
              | None ->
                  List.find_map
                    (fun b ->
                      if Action.equal a (submit n b) then
                        Some
                          (Vdist.dirac
                             (st ~members ~fresh ~log ~phase:(Value.tag "proposing" (Value.int b))))
                      else None)
                    block_ids)
        | Value.Tag ("proposing", Value.Int b) when Action.equal a (propose n b) ->
            Some (Vdist.dirac (st ~members ~fresh ~log ~phase:(collecting b [])))
        | Value.Tag ("collecting", Value.Pair (Value.Int b, votes_v)) -> (
            let votes = of_ints votes_v in
            let missing = List.filter (fun i -> not (List.mem i votes)) members in
            let reached =
              match quorum with
              | `All -> missing = []
              | `At_least t -> List.length votes >= t
            in
            if reached && Action.equal a (commit n b) then
              Some (Vdist.dirac (st ~members ~fresh ~log:(log @ [ b ]) ~phase:idle_phase))
            else
              match
                List.find_opt (fun i -> Action.equal a (vote n i b)) missing
              with
              | Some i ->
                  Some
                    (Vdist.dirac
                       (st ~members ~fresh ~log
                          ~phase:(collecting b (List.sort Int.compare (i :: votes)))))
              | None -> None)
        | _ -> None)
  in
  Psioa.make ~name:(n ^ ".chair")
    ~start:(st ~members:[] ~fresh:0 ~log:[] ~phase:idle_phase)
    ~signature ~transition

(* ------------------------------------------------------------------ PCA *)

let build ?(max_validators = 3) ?(blocks = 2) ?quorum ?(wrap_validator = fun _ v -> v) n =
  (* The registry and the [created] mapping key members by name, so a
     wrapped validator (e.g. [Fault.compromise]) is renamed back to its
     canonical [validator_name] — wrappers change behaviour, not identity. *)
  let member i =
    Psioa.rename_auto (validator_name n i) (wrap_validator i (validator ~n ~blocks i))
  in
  let registry =
    Registry.of_list
      (chair ?quorum ~n ~max_validators ~blocks () :: List.init max_validators member)
  in
  let created _config a =
    (* addᵢ creates validator i. *)
    match
      List.find_opt
        (fun i -> Action.equal a (add n i))
        (List.init max_validators Fun.id)
    with
    | Some i -> [ validator_name n i ]
    | None -> []
  in
  Pca.make ~name:(n ^ "-committee") ~registry
    ~init:(Config.start_of registry [ n ^ ".chair" ])
    ~created ()

let chair_state pca q =
  List.find_map
    (fun (id, s) -> if Astring.String.is_suffix ~affix:".chair" id then Some s else None)
    (Config.entries (Pca.config_of pca q))

let members pca q =
  match chair_state pca q with
  | Some (Value.Tag ("chair", Value.List [ Value.List m; _; _; _ ])) ->
      List.filter_map (function Value.Int i -> Some i | _ -> None) m
  | _ -> []

let collecting pca q =
  match chair_state pca q with
  | Some (Value.Tag ("chair", Value.List [ _; _; _; Value.Tag ("collecting", Value.Pair (Value.Int b, Value.List vs)) ])) ->
      Some (b, List.filter_map (function Value.Int i -> Some i | _ -> None) vs)
  | _ -> None

let committed pca q =
  match chair_state pca q with
  | Some (Value.Tag ("chair", Value.List [ _; _; Value.List lg; _ ])) ->
      List.filter_map (function Value.Int i -> Some i | _ -> None) lg
  | _ -> []


(* ---------------------------------------------- structured view & ideal *)

let structured_psioa auto n =
  let submit = n ^ ".submit" and commit = n ^ ".commit" in
  let is_env a =
    let base = Cdse_psioa.Action.name a in
    String.equal base submit || String.equal base commit
  in
  let eact q = Sigs.filter_ext is_env (Psioa.signature auto q) in
  Cdse_secure.Structured.make auto ~eact

let structured pca n = structured_psioa (Pca.psioa pca) n

let ideal ?(blocks = 2) n =
  let idle = Value.tag "ic-idle" Value.unit in
  let pending b = Value.tag "ic-pending" (Value.int b) in
  let block_ids = List.init blocks Fun.id in
  let signature q =
    match q with
    | Value.Tag ("ic-idle", _) -> Sigs.of_lists ~i:(List.map (submit n) block_ids) ()
    | Value.Tag ("ic-pending", Value.Int b) -> Sigs.of_lists ~o:[ commit n b ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ic-idle", _) ->
        List.find_map
          (fun b -> if Action.equal a (submit n b) then Some (Vdist.dirac (pending b)) else None)
          block_ids
    | Value.Tag ("ic-pending", Value.Int b) when Action.equal a (commit n b) ->
        Some (Vdist.dirac idle)
    | _ -> None
  in
  let psioa = Psioa.make ~name:(n ^ ".ideal") ~start:idle ~signature ~transition in
  Cdse_secure.Structured.make psioa ~eact:(fun q -> Sigs.ext (signature q))

let env_commit ?(block = 0) n =
  let s k = Value.tag "ce" (Value.int k) in
  let acc = Action.make "acc" in
  let signature q =
    match q with
    | Value.Tag ("ce", Value.Int 0) -> Sigs.of_lists ~o:[ submit n block ] ()
    | Value.Tag ("ce", Value.Int 1) -> Sigs.of_lists ~i:[ commit n block ] ()
    | Value.Tag ("ce", Value.Int 2) -> Sigs.of_lists ~o:[ acc ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("ce", Value.Int 0) when Action.equal a (submit n block) -> Some (Vdist.dirac (s 1))
    | Value.Tag ("ce", Value.Int 1) when Action.equal a (commit n block) -> Some (Vdist.dirac (s 2))
    | Value.Tag ("ce", Value.Int 2) when Action.equal a acc -> Some (Vdist.dirac (s 3))
    | _ -> None
  in
  Psioa.make ~name:(n ^ ".cenv") ~start:(s 0) ~signature ~transition
