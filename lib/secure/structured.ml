open Cdse_psioa

type t = { psioa : Psioa.t; eact : Value.t -> Action_set.t }

let make psioa ~eact = { psioa; eact }
let psioa s = s.psioa
let name s = Psioa.name s.psioa
(* Each per-state part below evaluates the signature at [q] once. *)
let eact_at s q sg = Action_set.inter (s.eact q) (Sigs.ext sg)

(* [ext ∖ (EAct ∩ ext)] is [ext ∖ EAct]: no intersection is built. *)
let aact_at s q sg = Action_set.diff (Sigs.ext sg) (s.eact q)

let eact s q = eact_at s q (Psioa.signature s.psioa q)
let aact s q = aact_at s q (Psioa.signature s.psioa q)

let part of_sig within s q =
  let sg = Psioa.signature s.psioa q in
  Action_set.inter (of_sig s q sg) (within sg)

let ei = part eact_at Sigs.input
let eo = part eact_at Sigs.output
let ai = part aact_at Sigs.input
let ao = part aact_at Sigs.output

exception Universe_truncated of { automaton : string; max_states : int }

let () =
  Printexc.register_printer (function
    | Universe_truncated { automaton; max_states } ->
        Some
          (Printf.sprintf
             "Structured.Universe_truncated: automaton %S reaches more than %d states, so a \
              sweep of its reachable states is incomplete"
             automaton max_states)
    | _ -> None)

let union_over f s states =
  List.fold_left (fun acc q -> Action_set.union acc (f s q)) Action_set.empty states

let aact_universe ?max_states ?max_depth s =
  union_over aact s (Psioa.reachable ?max_states ?max_depth s.psioa)

(* An alphabet or a check built from a truncated sweep would silently miss
   the states beyond the cap, so the complete sweep raises instead. *)
let sweep a =
  let max_states = Psioa.default_max_states in
  match Psioa.reachable_trunc ~max_states a with
  | states, false -> states
  | _, true -> raise (Universe_truncated { automaton = Psioa.name a; max_states })

let ai_universe s = union_over ai s (sweep s.psioa)
let ao_universe s = union_over ao s (sweep s.psioa)

let validate ?max_states s =
  Psioa.check_reachable ?max_states s.psioa (fun q ->
      match Psioa.check_state s.psioa q with
      | Error _ as e -> e
      | Ok () ->
          let declared = s.eact q in
          let ext = Sigs.ext (Psioa.signature s.psioa q) in
          if Action_set.subset declared ext then Ok ()
          else
            Error
              (Format.asprintf "state %a: EAct %a not within ext %a" Value.pp q Action_set.pp
                 declared Action_set.pp ext))

(* One sweep of the pair: a composed signature that raises [Incompatible]
   is a partial-compatibility failure (Definition 2.18); otherwise
   Definition 4.18 at every reachable composite state: shared enabled
   actions must be environment actions of both. *)
let compatible s1 s2 =
  match sweep (Compose.pair s1.psioa s2.psioa) with
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

let compose s1 s2 =
  let psioa = Compose.pair s1.psioa s2.psioa in
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
