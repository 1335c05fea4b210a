open Cdse_psioa

exception
  Not_adversary of {
    structured : string;
    adversary : string;
    state : Value.t;
    condition : string;
    action : Action.t option;
  }

(* Name both automata, render the offending composite state and — when one
   exists — the concrete action violating the condition: enough to find
   the bad signature entry without a debugger (the PR-2 convention of
   [Psioa.Not_enabled] / [Scheduler.Bad_choice]). *)
let () =
  Printexc.register_printer (function
    | Not_adversary { structured; adversary; state; condition; action } ->
        Some
          (Format.asprintf
             "Adversary.Not_adversary: %S is not an adversary for %S: %s at composite state %a%s"
             adversary structured condition Value.pp state
             (match action with
             | None -> ""
             | Some a -> Printf.sprintf " (offending action %s)" (Action.to_string a)))
    | _ -> None)

let violation ~structured ~adv ~state ~condition ~action =
  Not_adversary
    { structured = Structured.name structured;
      adversary = Psioa.name adv;
      state;
      condition;
      action }

(* The reachable states of [A ‖ Adv], in one sweep of the pair. A composed
   signature that raises [Incompatible] during the sweep means the two are
   not partially compatible; a sweep past the state cap raises
   [Structured.Universe_truncated]. *)
let composite_states ~structured ~adv =
  match Structured.sweep (Compose.pair (Structured.psioa structured) adv) with
  | states -> states
  | exception Compose.Incompatible _ ->
      raise
        (violation ~structured ~adv ~state:(Psioa.start adv)
           ~condition:"not partially compatible with the structured automaton" ~action:None)

let check_exn ~structured adv =
  List.iter
    (fun q ->
      let qa, qadv = Compose.proj_pair q in
      let adv_sig = Psioa.signature adv qadv in
      let missing = Action_set.diff (Structured.ai structured qa) (Sigs.output adv_sig) in
      if not (Action_set.is_empty missing) then
        raise
          (violation ~structured ~adv ~state:q
             ~condition:"AI_A ⊄ out(Adv) — an adversary input of the protocol is not driven"
             ~action:(Action_set.min_elt_opt missing));
      let touched = Action_set.inter (Structured.eact structured qa) (Sigs.all adv_sig) in
      if not (Action_set.is_empty touched) then
        raise
          (violation ~structured ~adv ~state:q
             ~condition:"adversary touches EAct_A — an environment action is on its interface"
             ~action:(Action_set.min_elt_opt touched)))
    (composite_states ~structured ~adv)

let check ~structured adv =
  match check_exn ~structured adv with
  | () -> Ok ()
  | exception (Not_adversary _ as exn) -> Error (Printexc.to_string exn)

let is_adversary ~structured adv = Result.is_ok (check ~structured adv)

let full_control ~structured adv =
  is_adversary ~structured adv
  && List.for_all
       (fun q ->
         let qa, qadv = Compose.proj_pair q in
         Action_set.subset (Structured.ao structured qa) (Sigs.input (Psioa.signature adv qadv)))
       (composite_states ~structured ~adv)

(* ------------------------------------------------- adversarial takeover *)

(* The canonical adversarial reinterpretation of a member for
   [Fault.compromise]: same state space, but every locally controlled
   action is silenced — the member keeps absorbing its inputs (so
   composition partners and input-enabledness are untouched, and the state
   keeps evolving under the protocol's traffic) while contributing nothing
   of its own. A silently-taken-over committee validator accepts proposals
   but never votes; combined with a k-of-n budget this is exactly the
   "at most k members turn bad" threat model. States whose signature was
   already empty stay empty, preserving PCA destruction. *)
let silent_takeover auto =
  let signature q =
    let s = Psioa.signature auto q in
    let input = Sigs.input s in
    if Action_set.is_empty input then Sigs.empty
    else Sigs.make ~input ~output:Action_set.empty ~internal:Action_set.empty
  in
  let transition q a =
    if Action_set.mem a (Sigs.input (Psioa.signature auto q)) then Psioa.transition auto q a
    else None
  in
  Psioa.make
    ~name:(Psioa.name auto ^ ".silenced")
    ~start:(Psioa.start auto)
    ~signature ~transition

let nobody () =
  Psioa.make ~name:"nobody" ~start:Value.unit
    ~signature:(fun _ -> Sigs.empty)
    ~transition:(fun _ _ -> None)
