open Cdse_psioa
open Cdse_config

type t = { pca : Pca.t; member_eact : string -> Value.t -> Action_set.t }

let make ~pca ~member_eact = { pca; member_eact }
let pca s = s.pca

let config_eact s c =
  List.fold_left
    (fun acc (id, q) -> Action_set.union acc (s.member_eact id q))
    Action_set.empty (Config.entries c)

let eact s q =
  Action_set.diff
    (config_eact s (Pca.config_of s.pca q))
    (Pca.hidden_actions s.pca q)

let to_structured s = Structured.make (Pca.psioa s.pca) ~eact:(eact s)

let compose_pair s1 s2 =
  let pca = Pca.compose_pair s1.pca s2.pca in
  let member_eact id q =
    if Registry.mem (Pca.registry s1.pca) id then s1.member_eact id q else s2.member_eact id q
  in
  { pca; member_eact }

let check_constraint ?max_states ?max_depth s =
  let auto = Pca.psioa s.pca in
  Psioa.check_reachable ?max_states ?max_depth auto (fun q ->
      let derived = eact s q in
      let ext = Sigs.ext (Psioa.signature auto q) in
      (* EAct_X(q) must also be a valid environment partition: a subset
         of the PCA's external actions. *)
      if Action_set.subset derived ext then Ok ()
      else
        Error
          (Format.asprintf "state %a: EAct_X %a escapes ext %a" Value.pp q Action_set.pp derived
             Action_set.pp ext))
