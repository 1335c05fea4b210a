open Cdse_prob
module Obs = Cdse_obs.Obs

type t = {
  name : string;
  start : Value.t;
  signature : Value.t -> Sigs.t;
  transition : Value.t -> Action.t -> Value.t Dist.t option;
}

exception Not_enabled of { automaton : string; state : Value.t; action : Action.t }

(* An actionable rendering of the failure: which automaton, in which state
   (fully rendered, not just its constructor), refused which action. *)
let () =
  Printexc.register_printer (function
    | Not_enabled { automaton; state; action } ->
        Some
          (Printf.sprintf "Psioa.Not_enabled: automaton %S has no transition for action %s in state %s"
             automaton (Action.to_string action) (Value.to_string state))
    | _ -> None)

let make ~name ~start ~signature ~transition = { name; start; signature; transition }

let name a = a.name
let start a = a.start
let signature a q = a.signature q
let transition a q act = a.transition q act
let enabled a q = Sigs.all (a.signature q)
let is_enabled a q act = Sigs.mem act (a.signature q)

let step a q act =
  match a.transition q act with
  | Some d -> d
  | None -> raise (Not_enabled { automaton = a.name; state = q; action = act })

let rename_auto name a = { a with name }

(* The memo and sweep tables hash a state all the way down
   ({!Value.hash}); the transition table hashes its (state, action) pair
   the same way in one pass. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Stbl = Hashtbl.Make (struct
  type t = Value.t * Action.t

  let equal (q1, a1) (q2, a2) = Value.equal q1 q2 && Action.equal a1 a2
  let hash k = Hashtbl.hash_param 256 256 k
end)

let c_sig_hit = Obs.counter "psioa.memo.sig.hit"
let c_sig_miss = Obs.counter "psioa.memo.sig.miss"
let c_step_hit = Obs.counter "psioa.memo.step.hit"
let c_step_miss = Obs.counter "psioa.memo.step.miss"

let memoize a =
  let sig_cache = Vtbl.create 64 in
  let tr_cache = Stbl.create 64 in
  let signature q =
    match Vtbl.find_opt sig_cache q with
    | Some s ->
        Obs.incr c_sig_hit;
        s
    | None ->
        Obs.incr c_sig_miss;
        let s = a.signature q in
        Vtbl.add sig_cache q s;
        s
  in
  let transition q act =
    let key = (q, act) in
    match Stbl.find_opt tr_cache key with
    | Some d ->
        Obs.incr c_step_hit;
        d
    | None ->
        Obs.incr c_step_miss;
        let d = a.transition q act in
        Stbl.add tr_cache key d;
        d
  in
  { a with signature; transition }

(* Breadth-first exploration of the support graph, in visit order. The
   second component reports whether [max_states] cut the exploration: a
   state beyond the cap is {e dropped}, never materialised, so callers
   that need soundness (e.g. {!Bisim}) can detect truncation without the
   engine ever holding [max_states + 1] states. *)
let default_max_states = 10_000

let reachable_trunc ?(max_states = default_max_states) ?(max_depth = max_int) a =
  let seen = Vtbl.create 64 in
  let queue = Queue.create () in
  Queue.add (a.start, 0) queue;
  Vtbl.add seen a.start ();
  let order = ref [] in
  let truncated = ref false in
  while not (Queue.is_empty queue) do
    let q, depth = Queue.pop queue in
    order := q :: !order;
    if depth < max_depth then
      Action_set.iter
        (fun act ->
          match a.transition q act with
          | None -> ()
          | Some d ->
              List.iter
                (fun q' ->
                  if not (Vtbl.mem seen q') then begin
                    if Vtbl.length seen < max_states then begin
                      Vtbl.add seen q' ();
                      Queue.add (q', depth + 1) queue
                    end
                    else truncated := true
                  end)
                (Dist.support d))
        (Sigs.all (a.signature q))
  done;
  (List.rev !order, !truncated)

let reachable ?max_states ?max_depth a =
  fst (reachable_trunc ?max_states ?max_depth a)

let universal_actions ?max_states ?max_depth a =
  List.fold_left
    (fun acc q -> Action_set.union acc (Sigs.all (a.signature q)))
    Action_set.empty
    (reachable ?max_states ?max_depth a)

(* Check the Definition 2.1 constraints at one state. *)
let check_state a q =
  match a.signature q with
  | exception Sigs.Not_disjoint msg ->
      Error (Printf.sprintf "automaton %S, state %s: %s" a.name (Value.to_string q) msg)
  | s ->
      let check_action act acc =
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match a.transition q act with
            | None ->
                Error
                  (Printf.sprintf "automaton %S, state %s: enabled action %s has no transition"
                     a.name (Value.to_string q) (Action.to_string act))
            | Some d ->
                if Dist.is_proper d then Ok ()
                else
                  Error
                    (Printf.sprintf
                       "automaton %S, state %s, action %s: transition distribution has mass %s"
                       a.name (Value.to_string q) (Action.to_string act)
                       (Rat.to_string (Dist.mass d))))
      in
      Action_set.fold check_action (Sigs.all s) (Ok ())

let validate ?max_states ?max_depth a =
  match reachable ?max_states ?max_depth a with
  | exception Sigs.Not_disjoint msg -> Error (Printf.sprintf "automaton %S: %s" a.name msg)
  | states ->
      List.fold_left
        (fun acc q -> match acc with Error _ -> acc | Ok () -> check_state a q)
        (Ok ()) states

let pp fmt a = Format.fprintf fmt "<psioa %s>" a.name
