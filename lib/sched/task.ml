open Cdse_prob
open Cdse_psioa

type task = string

let task_of_name n = n
let mem a t = String.equal (Action.name a) t

let enabled_in auto q t =
  Action_set.elements
    (Action_set.filter (fun a -> mem a t) (Sigs.local (Psioa.signature auto q)))

type schedule = task list

let empty_choice = Dist.empty ~compare:Action.compare

let scheduler auto schedule =
  let tasks = Array.of_list schedule in
  Scheduler.make ~memoryless:true ~validated:true
    ~name:(Printf.sprintf "task-schedule(%d)" (Array.length tasks)) (fun e ->
      let i = Exec.length e in
      if i >= Array.length tasks then empty_choice
      else
        match enabled_in auto (Exec.lstate e) tasks.(i) with
        | [ a ] -> Dist.dirac ~compare:Action.compare a
        | _ -> empty_choice)

let scheduler_skipping auto schedule =
  Scheduler.make ~validated:true
    ~name:(Printf.sprintf "task-schedule-skip(%d)" (List.length schedule))
    (fun e ->
      (* Replay the fragment against the schedule to know how many tasks
         have been consumed: a task is consumed when it fired (it matched
         the fragment's action) or when it was skipped (not uniquely
         enabled at that point). *)
      let rec advance q steps tasks =
        match tasks with
        | [] -> []
        | t :: rest -> (
            match steps with
            | [] -> (
                (* At the frontier: skip leading non-uniquely-enabled
                   tasks. *)
                match enabled_in auto q t with
                | [ _ ] -> tasks
                | _ -> advance q [] rest)
            | (a, q') :: more ->
                if mem a t && List.length (enabled_in auto q t) = 1 then advance q' more rest
                else advance q steps rest)
      in
      match advance (Exec.fstate e) (Exec.steps e) schedule with
      | [] -> empty_choice
      | t :: _ -> (
          match enabled_in auto (Exec.lstate e) t with
          | [ a ] -> Dist.dirac ~compare:Action.compare a
          | _ -> empty_choice))

let is_action_deterministic auto schedule =
  let tasks = List.sort_uniq String.compare schedule in
  List.for_all
    (fun q -> List.for_all (fun t -> List.length (enabled_in auto q t) <= 1) tasks)
    (Psioa.reachable auto)
