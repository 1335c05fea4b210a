open Cdse_prob
open Cdse_psioa
module Obs = Cdse_obs.Obs

let c_validations = Obs.counter "sched.validations"

type t = {
  name : string;
  memoryless : bool;
  validated : bool;
  choose : Exec.t -> Action.t Dist.t;
}

exception Bad_choice of { scheduler : string; state : Value.t; action : Action.t }

(* Name the scheduler, render the offending state in full and show the
   action: enough to reproduce the bad choice without a debugger. *)
let () =
  Printexc.register_printer (function
    | Bad_choice { scheduler; state; action } ->
        Some
          (Printf.sprintf
             "Scheduler.Bad_choice: scheduler %S chose action %s outside the signature at state %s"
             scheduler (Action.to_string action) (Value.to_string state))
    | _ -> None)

let make ?(memoryless = false) ?(validated = false) ~name choose =
  { name; memoryless; validated; choose }

let is_memoryless s = s.memoryless

let empty_choice = Dist.empty ~compare:Action.compare

let halt = { name = "halt"; memoryless = true; validated = true; choose = (fun _ -> empty_choice) }

(* Locally controlled actions (output ∪ internal) at the last state: the
   closed-world pool the standard schedulers draw from. Free inputs of the
   composite are left to explicit (oblivious/custom) schedulers. *)
let local_pool a e = Sigs.local (Psioa.signature a (Exec.lstate e))

let uniform a =
  make ~memoryless:true ~validated:true ~name:(Printf.sprintf "uniform(%s)" (Psioa.name a)) (fun e ->
      let acts = Action_set.elements (local_pool a e) in
      match acts with [] -> empty_choice | _ -> Dist.uniform ~compare:Action.compare acts)

(* The least pool action at the last state passing [p]: the lesser of the
   first passing output and the first passing internal action, so the
   union [Sigs.local] is never built. *)
let first_local p a e =
  let sg = Psioa.signature a (Exec.lstate e) in
  let first set = Seq.find p (Action_set.to_seq set) in
  let pick =
    match (first (Sigs.output sg), first (Sigs.internal sg)) with
    | None, found | found, None -> found
    | Some o, Some h -> Some (if Action.compare o h < 0 then o else h)
  in
  match pick with None -> empty_choice | Some act -> Dist.dirac ~compare:Action.compare act

let first_enabled a =
  make ~memoryless:true ~validated:true ~name:(Printf.sprintf "first(%s)" (Psioa.name a))
    (first_local (fun _ -> true) a)

let first_enabled_where ?(name = "first-where") pred a =
  (* Deterministic like [first_enabled], but the pick is restricted to the
     pool actions passing [pred e] — the predicate sees the whole history,
     so the promise of memorylessness is dropped. When the pool is
     non-empty but fully filtered the scheduler halts deliberately (empty
     choice, deficit 1), exactly like an exhausted [bounded]. *)
  make ~memoryless:false ~validated:true
    ~name:(Printf.sprintf "%s(%s)" name (Psioa.name a))
    (fun e -> first_local (pred e) a e)

let round_robin a =
  make ~memoryless:true ~validated:true ~name:(Printf.sprintf "round-robin(%s)" (Psioa.name a)) (fun e ->
      let acts = Action_set.elements (local_pool a e) in
      match acts with
      | [] -> empty_choice
      | _ -> Dist.dirac ~compare:Action.compare (List.nth acts (Exec.length e mod List.length acts)))

let oblivious a script =
  let script = Array.of_list script in
  make ~memoryless:true ~validated:true ~name:(Printf.sprintf "oblivious(%s,%d)" (Psioa.name a) (Array.length script)) (fun e ->
      let i = Exec.length e in
      if i >= Array.length script then empty_choice
      else
        let act = script.(i) in
        if Psioa.is_enabled a (Exec.lstate e) act then Dist.dirac ~compare:Action.compare act
        else empty_choice)

let oblivious_local a script =
  let script = Array.of_list script in
  make ~memoryless:true ~validated:true ~name:(Printf.sprintf "oblivious-local(%s,%d)" (Psioa.name a) (Array.length script))
    (fun e ->
      let i = Exec.length e in
      if i >= Array.length script then empty_choice
      else
        let act = script.(i) in
        match Sigs.classify act (Psioa.signature a (Exec.lstate e)) with
        | `Output | `Internal -> Dist.dirac ~compare:Action.compare act
        | `Input | `Absent -> empty_choice)

let bounded b s =
  { name = Printf.sprintf "bounded[%d] %s" b s.name;
    memoryless = s.memoryless;
    validated = s.validated;
    choose = (fun e -> if Exec.length e >= b then empty_choice else s.choose e) }

(* The signature is only computed when the choice is non-empty (halting
   choices dominate the cone frontier's leaves), and membership is checked
   per component via [Sigs.classify] — no union set is materialized. *)
let validate_choice a s e =
  let d = s.choose e in
  if (not s.validated) && Dist.size d > 0 then begin
    Obs.incr c_validations;
    let sg = Psioa.signature a (Exec.lstate e) in
    Dist.iter
      (fun act _ ->
        if Sigs.classify act sg = `Absent then
          raise (Bad_choice { scheduler = s.name; state = Exec.lstate e; action = act }))
      d
  end;
  d
