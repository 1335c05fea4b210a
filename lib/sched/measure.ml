open Cdse_prob
open Cdse_psioa

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]
type compress = Par_measure.compress

(* The cone-expansion engine itself lives in {!Par_measure}: one node
   expansion driven by the sequential layer loop or, for unbudgeted
   quotient-free multicore runs, by the barrier-free subtree engine — see
   par_measure.mli for the dispatch rule and the determinism contract.
   This module keeps the measure-theoretic surface: cones, traces,
   reachability, expectations, sampling. *)

type frontier = Par_measure.frontier = {
  f_depth : int;
  f_alive : (Exec.t * Rat.t) list;
  f_finished : (Exec.t * Rat.t) list;
}

(* Every exact entry point funnels through here, so one span covers the
   whole engine run; the spans inside it come from Par_measure. *)
let traced ?resume_from ?domains ~depth f =
  Cdse_obs.Trace.span "measure.exec_dist"
    ~args:(fun () ->
      [ ("depth", string_of_int depth) ]
      @ (match resume_from with
        | Some d -> [ ("resume_from", string_of_int d) ]
        | None -> [])
      @ [ ("domains", string_of_int (Option.value ~default:1 domains)) ])
    f

let budgeted ?memo ?max_execs ?max_width ?domains ?compress ?track auto sched ~depth =
  traced ?domains ~depth (fun () ->
      Par_measure.exec_dist_budgeted ?memo ?max_execs ?max_width ?domains ?compress
        ?track auto sched ~depth)

let exec_dist_budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth =
  budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth

let drop_tag = function `Exact d | `Truncated (d, _) -> d

let exec_dist ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth =
  drop_tag (budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth)

let exec_dist_frontier ?memo ?domains ?compress ?from auto sched ~depth =
  let resume_from = match from with Some f -> f.f_depth | None -> 0 in
  traced ~resume_from ?domains ~depth (fun () ->
      Par_measure.exec_dist_frontier ?memo ?domains ?compress ?from auto sched ~depth)

let cone_prob auto sched alpha =
  let rec go acc prefix = function
    | [] -> acc
    | (act, q') :: rest ->
        let choice = Scheduler.validate_choice auto sched prefix in
        let pa = Dist.prob choice act in
        if Rat.is_zero pa then Rat.zero
        else
          let eta = Psioa.step auto (Exec.lstate prefix) act in
          let pq = Dist.prob eta q' in
          if Rat.is_zero pq then Rat.zero
          else go (Rat.mul acc (Rat.mul pa pq)) (Exec.extend prefix act q') rest
  in
  if not (Value.equal (Exec.fstate alpha) (Psioa.start auto)) then Rat.zero
  else go Rat.one (Exec.init (Psioa.start auto)) (Exec.steps alpha)

let map_budgeted f = function
  | `Exact d -> `Exact (f d)
  | `Truncated (d, lost) -> `Truncated (f d, lost)

let trace_of auto = Exec.trace ~sig_of:(Psioa.signature auto)

let trace_dist ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth =
  Dist.map
    ~compare:(Cdse_util.Order.list Action.compare)
    (trace_of auto)
    (exec_dist ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth)

let trace_dist_budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched
    ~depth =
  map_budgeted
    (Dist.map ~compare:(Cdse_util.Order.list Action.compare) (trace_of auto))
    (exec_dist_budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched
       ~depth)

let n_execs ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth =
  Dist.size (exec_dist ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth)

(* Probabilistic reachability: mass of completed executions that visit a
   state satisfying the predicate within the depth bound. [pred] is passed
   to the engine as the [?track] refinement, so the quotient never merges a
   pred-hitting execution with a pred-missing one — the mass below stays
   exact under every compression level. *)
let reach_mass ~pred d =
  Dist.fold
    (fun acc e p -> if List.exists pred (Exec.states e) then Rat.add acc p else acc)
    Rat.zero d

let reach_prob_budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched
    ~depth ~pred =
  map_budgeted (reach_mass ~pred)
    (budgeted ?memo ?max_execs ?max_width ?domains ?compress ~track:pred auto sched
       ~depth)

let reach_prob ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth
    ~pred =
  drop_tag
    (reach_prob_budgeted ?memo ?max_execs ?max_width ?domains ?compress auto sched
       ~depth ~pred)

(* Expected number of scheduled steps of the completed execution. *)
let expected_steps ?memo ?max_execs ?max_width ?domains ?compress auto sched
    ~depth =
  Dist.expect
    (fun e -> Rat.of_int (Exec.length e))
    (exec_dist ?memo ?max_execs ?max_width ?domains ?compress auto sched ~depth)

(* Monte-Carlo estimation: drive sampled runs instead of expanding the
   exact cone tree. The estimator trades exactness for scale — the exact
   computation is exponential in depth on branching systems (experiment
   E7), while sampling is linear in [samples × depth]. *)
let sample_exec auto sched ~rng ~depth =
  let rec go e n =
    if n = 0 then e
    else
      let choice = Scheduler.validate_choice auto sched e in
      match Dist.sample rng choice with
      | None -> e
      | Some act -> (
          let eta = Psioa.step auto (Exec.lstate e) act in
          match Dist.sample rng eta with
          | None -> e (* unreachable: transition measures are proper *)
          | Some q' -> go (Exec.extend e act q') (n - 1))
  in
  go (Exec.init (Psioa.start auto)) depth

let estimate_fdist auto sched ~observe ~rng ~samples ~depth =
  let counts = Hashtbl.create 64 in
  for _ = 1 to samples do
    let obs = observe (sample_exec auto sched ~rng ~depth) in
    Hashtbl.replace counts obs (1 + Option.value ~default:0 (Hashtbl.find_opt counts obs))
  done;
  Hashtbl.fold (fun obs n acc -> (obs, float_of_int n /. float_of_int samples) :: acc) counts []
