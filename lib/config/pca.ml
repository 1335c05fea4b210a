open Cdse_prob
open Cdse_psioa

type t = {
  name : string;
  registry : Registry.t;
  psioa : Psioa.t;
  config_of : Value.t -> Config.t;
  created : Value.t -> Action.t -> string list;
  hidden : Value.t -> Action_set.t;
}

let registry x = x.registry
let psioa x = x.psioa
let config_of x q = x.config_of q
let created x q a = x.created q a
let hidden_actions x q = x.hidden q
let alive x q = Config.auts (x.config_of q)

let make ~name ~registry ~init ?(created = fun _ _ -> []) () =
  if not (Config.is_reduced registry init) then
    invalid_arg (Format.asprintf "Pca.make %s: initial configuration not reduced: %a" name Config.pp init);
  if not (Config.compatible registry init) then
    invalid_arg (Format.asprintf "Pca.make %s: initial configuration not compatible: %a" name Config.pp init);
  let config_of = Config.of_value in
  let signature q = Config.signature registry (Config.of_value q) in
  let transition q act =
    let c = Config.of_value q in
    Option.map
      (Dist.map ~compare:Value.compare Config.to_value)
      (Ctrans.intrinsic registry c act ~created:(created c act))
  in
  let psioa = Psioa.make ~name ~start:(Config.to_value init) ~signature ~transition in
  { name;
    registry;
    psioa;
    config_of;
    created = (fun q a -> created (Config.of_value q) a);
    hidden = (fun _ -> Action_set.empty) }

(* Definition 2.17: hiding only touches sig and hidden-actions. *)
let hide x extra =
  let hidden q = Action_set.union (x.hidden q) (extra q) in
  let signature q = Sigs.hide (Psioa.signature x.psioa q) (extra q) in
  let psioa =
    Psioa.make ~name:(Psioa.name x.psioa) ~start:(Psioa.start x.psioa) ~signature
      ~transition:(Psioa.transition x.psioa)
  in
  { x with psioa; hidden }

let compose_pair x1 x2 =
  let name = x1.name ^ "||" ^ x2.name in
  let psioa = Compose.pair ~name x1.psioa x2.psioa in
  let proj q = Compose.proj_pair q in
  let config_of q =
    let q1, q2 = proj q in
    Config.union (x1.config_of q1) (x2.config_of q2)
  in
  let created q act =
    let q1, q2 = proj q in
    let from x q' =
      if Psioa.is_enabled x.psioa q' act then x.created q' act else []
    in
    List.sort_uniq String.compare (from x1 q1 @ from x2 q2)
  in
  let hidden q =
    let q1, q2 = proj q in
    Action_set.union (x1.hidden q1) (x2.hidden q2)
  in
  { name; registry = Registry.union x1.registry x2.registry; psioa; config_of; created; hidden }

let parallel ?name = function
  | [] -> invalid_arg "Pca.parallel: empty list"
  | [ x ] -> x
  | x :: rest ->
      let composed = List.fold_left (fun acc y -> compose_pair acc y) x rest in
      (match name with Some n -> { composed with psioa = Psioa.rename_auto n composed.psioa; name = n } | None -> composed)

let check_constraints ?max_states ?max_depth x =
  let reg = x.registry in
  let check_state q =
    let c = x.config_of q in
    let errf fmt = Format.kasprintf (fun s -> Error s) ("PCA %S: " ^^ fmt) x.name in
    if not (Config.is_reduced reg c) then errf "state %a: configuration not reduced" Value.pp q
    else if not (Config.compatible reg c) then errf "state %a: configuration not compatible" Value.pp q
    else begin
      (* Constraint 4 (action hiding). *)
      let expected = Sigs.hide (Config.signature reg c) (x.hidden q) in
      let actual = Psioa.signature x.psioa q in
      if not (Sigs.equal expected actual) then
        errf "state %a: signature %a differs from hidden configuration signature %a" Value.pp q
          Sigs.pp actual Sigs.pp expected
      else begin
        (* Constraints 2 and 3 (top/down and bottom/up simulation): the
           PSIOA transition must correspond, via config(X), to the intrinsic
           transition with φ = created(X)(q)(a) — and exist exactly when the
           intrinsic one does. *)
        let check_action act acc =
          match acc with
          | Error _ -> acc
          | Ok () -> (
              let intrinsic = Ctrans.intrinsic reg c act ~created:(x.created q act) in
              let direct = Psioa.transition x.psioa q act in
              match (direct, intrinsic) with
              | None, None -> Ok ()
              | Some _, None -> errf "state %a, action %a: PSIOA moves but configuration cannot" Value.pp q Action.pp act
              | None, Some _ -> errf "state %a, action %a: configuration moves but PSIOA cannot (bottom/up)" Value.pp q Action.pp act
              | Some d, Some eta' ->
                  if Dist.corresponds ~f:x.config_of d (Dist.map ~compare:Config.compare Fun.id eta')
                  then Ok ()
                  else
                    errf "state %a, action %a: η_(X,q,a) does not correspond to intrinsic transition"
                      Value.pp q Action.pp act)
        in
        Action_set.fold check_action (Sigs.all actual) (Ok ())
      end
    end
  in
  (* Constraint 1 (start preservation). *)
  let start = Psioa.start x.psioa in
  let c0 = x.config_of start in
  let start_ok =
    List.for_all
      (fun (id, q) -> Value.equal q (Psioa.start (Registry.find reg id)))
      (Config.entries c0)
  in
  if not start_ok then
    Error (Printf.sprintf "PCA %S: start state does not map members to their start states" x.name)
  else
    Psioa.check_reachable ?max_states ?max_depth x.psioa check_state
