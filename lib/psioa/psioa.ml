open Cdse_prob
module Obs = Cdse_obs.Obs

(* The last signature evaluation. Def 2.1 makes the signature a function
   of the state, so a read at the physically same state can return it.
   The mutable field holds an immutable pair: a thread reading it sees
   either the old entry or the new one, never a mix. *)
type last = No_entry | Last of Value.t * Sigs.t

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

(* A memo that threads may share: each table access under [lock];
   [stored] counts the entries of both tables. *)
type memo = {
  lock : Mutex.t;
  sigs : Sigs.t Vtbl.t;
  steps : Value.t Dist.t option Stbl.t;
  mutable stored : int;
}

type t = {
  name : string;
  start : Value.t;
  signature : Value.t -> Sigs.t;
  transition : Value.t -> Action.t -> Value.t Dist.t option;
  mutable last : last;
  memo : memo option;
}

exception Not_enabled of { automaton : string; state : Value.t; action : Action.t }
exception Sweep_truncated of { automaton : string; max_states : int }

let truncated_msg automaton max_states =
  Printf.sprintf "automaton %S reaches more than %d states (max_states)" automaton max_states

(* An actionable rendering of the failure: which automaton, in which state
   (fully rendered, not just its constructor), refused which action. *)
let () =
  Printexc.register_printer (function
    | Not_enabled { automaton; state; action } ->
        Some
          (Printf.sprintf "Psioa.Not_enabled: automaton %S has no transition for action %s in state %s"
             automaton (Action.to_string action) (Value.to_string state))
    | Sweep_truncated { automaton; max_states } ->
        Some ("Psioa.Sweep_truncated: " ^ truncated_msg automaton max_states)
    | _ -> None)

let make ~name ~start ~signature ~transition =
  { name; start; signature; transition; last = No_entry; memo = None }

let name a = a.name
let start a = a.start

let c_last_hit = Obs.counter "psioa.sig.last.hit"
let c_last_miss = Obs.counter "psioa.sig.last.miss"

(* Keyed on [==], not {!Value.equal}: a miss costs one pointer test, not a
   walk of the state. A raising signature stores nothing. *)
let signature a q =
  match a.last with
  | Last (q', s) when q' == q ->
      Obs.incr c_last_hit;
      s
  | _ ->
      Obs.incr c_last_miss;
      let s = a.signature q in
      a.last <- Last (q, s);
      s

let transition a q act = a.transition q act
let enabled a q = Sigs.all (signature a q)
let is_enabled a q act = Sigs.mem act (signature a q)

let step a q act =
  match a.transition q act with
  | Some d -> d
  | None -> raise (Not_enabled { automaton = a.name; state = q; action = act })

let rename_auto name a = { a with name; last = No_entry }

let c_sig_hit = Obs.counter "psioa.memo.sig.hit"
let c_sig_miss = Obs.counter "psioa.memo.sig.miss"
let c_step_hit = Obs.counter "psioa.memo.step.hit"
let c_step_miss = Obs.counter "psioa.memo.step.miss"

let memo_cap = 1 lsl 16

let store m add tbl k v =
  if m.stored < memo_cap then begin
    add tbl k v;
    m.stored <- m.stored + 1
  end;
  v

(* One memo lookup. The lock covers only the table accesses, and a hit
   allocates nothing; [eval] runs outside the lock. The insert keeps the
   result another thread stored meanwhile, so every reader gets the first
   stored result; it looks the key up again only if something was stored
   since the first lookup. *)
let lookup m ~hit ~miss find add tbl eval k =
  Mutex.lock m.lock;
  match find tbl k with
  | v ->
      Mutex.unlock m.lock;
      Obs.incr hit;
      v
  | exception Not_found ->
      let seen = m.stored in
      Mutex.unlock m.lock;
      Obs.incr miss;
      let v = eval k in
      Mutex.lock m.lock;
      let v =
        if m.stored = seen then store m add tbl k v
        else match find tbl k with first -> first | exception Not_found -> store m add tbl k v
      in
      Mutex.unlock m.lock;
      v

let memoize a =
  match a.memo with
  | Some _ -> a
  | None ->
      let m =
        { lock = Mutex.create (); sigs = Vtbl.create 64; steps = Stbl.create 64; stored = 0 }
      in
      let sig_of = signature a and eval_step (q, act) = a.transition q act in
      let signature q = lookup m ~hit:c_sig_hit ~miss:c_sig_miss Vtbl.find Vtbl.add m.sigs sig_of q in
      let transition q act =
        lookup m ~hit:c_step_hit ~miss:c_step_miss Stbl.find Stbl.add m.steps eval_step (q, act)
      in
      { a with signature; transition; last = No_entry; memo = Some m }

let memo_entries a = match a.memo with Some m -> m.stored | None -> 0

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
        (Sigs.all (signature a q))
  done;
  (List.rev !order, !truncated)

let reachable ?max_states ?max_depth a =
  fst (reachable_trunc ?max_states ?max_depth a)

let universal_actions ?(max_states = default_max_states) ?max_depth a =
  match reachable_trunc ~max_states ?max_depth a with
  | _, true -> raise (Sweep_truncated { automaton = a.name; max_states })
  | states, false ->
      List.fold_left
        (fun acc q -> Action_set.union acc (Sigs.all (signature a q)))
        Action_set.empty states

(* Check the Definition 2.1 constraints at one state. *)
let check_state a q =
  match signature a q with
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

(* A sweep cut by the state cap fails even when every explored state
   passes: the states beyond the cap were never checked. *)
let check_reachable ?(max_states = default_max_states) ?max_depth a check =
  match reachable_trunc ~max_states ?max_depth a with
  | exception Sigs.Not_disjoint msg -> Error (Printf.sprintf "automaton %S: %s" a.name msg)
  | states, truncated ->
      let first =
        List.fold_left (fun acc q -> Result.bind acc (fun () -> check q)) (Ok ()) states
      in
      if truncated && Result.is_ok first then Error (truncated_msg a.name max_states)
      else first

let validate ?max_states ?max_depth a = check_reachable ?max_states ?max_depth a (check_state a)

let pp fmt a = Format.fprintf fmt "<psioa %s>" a.name
