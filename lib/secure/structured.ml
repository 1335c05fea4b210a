open Cdse_psioa

type t = { psioa : Psioa.t; eact : Value.t -> Action_set.t }

let make psioa ~eact = { psioa; eact }
let psioa s = s.psioa
let name s = Psioa.name s.psioa
let eact s q = Action_set.inter (s.eact q) (Sigs.ext (Psioa.signature s.psioa q))
let aact s q = Action_set.diff (Sigs.ext (Psioa.signature s.psioa q)) (eact s q)
let ei s q = Action_set.inter (eact s q) (Sigs.input (Psioa.signature s.psioa q))
let eo s q = Action_set.inter (eact s q) (Sigs.output (Psioa.signature s.psioa q))
let ai s q = Action_set.inter (aact s q) (Sigs.input (Psioa.signature s.psioa q))
let ao s q = Action_set.inter (aact s q) (Sigs.output (Psioa.signature s.psioa q))

let universe f ?max_states ?max_depth s =
  List.fold_left
    (fun acc q -> Action_set.union acc (f s q))
    Action_set.empty
    (Psioa.reachable ?max_states ?max_depth s.psioa)

let aact_universe ?max_states ?max_depth s = universe aact ?max_states ?max_depth s
let ai_universe s = universe ai s
let ao_universe s = universe ao s

let validate ?max_states ?max_depth s =
  match Psioa.validate ?max_states ?max_depth s.psioa with
  | Error _ as e -> e
  | Ok () ->
      List.fold_left
        (fun acc q ->
          match acc with
          | Error _ -> acc
          | Ok () ->
              let declared = s.eact q in
              let ext = Sigs.ext (Psioa.signature s.psioa q) in
              if Action_set.subset declared ext then Ok ()
              else
                Error
                  (Format.asprintf "state %a: EAct %a not within ext %a" Value.pp q Action_set.pp
                     declared Action_set.pp ext))
        (Ok ())
        (Psioa.reachable ?max_states ?max_depth s.psioa)

(* One sweep of the pair: a composed signature that raises [Incompatible]
   is a partial-compatibility failure (Definition 2.18); otherwise
   Definition 4.18 at every reachable composite state: shared enabled
   actions must be environment actions of both. *)
let compatible s1 s2 =
  match Psioa.reachable (Compose.pair s1.psioa s2.psioa) with
  | exception Compose.Incompatible _ -> false
  | states ->
      List.for_all
        (fun q ->
          let q1, q2 = Compose.proj_pair q in
          let shared =
            Action_set.inter
              (Sigs.all (Psioa.signature s1.psioa q1))
              (Sigs.all (Psioa.signature s2.psioa q2))
          in
          Action_set.equal shared (Action_set.inter (eact s1 q1) (eact s2 q2)))
        states

let compose ?name s1 s2 =
  let psioa = Compose.pair ?name s1.psioa s2.psioa in
  let eact q =
    let q1, q2 = Compose.proj_pair q in
    Action_set.union (eact s1 q1) (eact s2 q2)
  in
  { psioa; eact }

let hide s h =
  let psioa = Hide.psioa s.psioa h in
  let eact q = Action_set.diff (s.eact q) (h q) in
  { psioa; eact }

let rename s r =
  let psioa = Rename.psioa s.psioa r in
  let eact q = Action_set.map_actions (r q) (eact s q) in
  { psioa; eact }
