open Cdse_prob
open Cdse_psioa
module Obs = Cdse_obs.Obs
module Trace = Cdse_obs.Trace

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]

type compress = [ `Off | `Quotient ]

let compress_levels = [ ("off", `Off); ("quotient", `Quotient) ]

(* A resumable expansion frontier: the alive entries (each of length
   [f_depth]) plus the finished mass accumulated on the way there. Only
   frontiers of {e unbudgeted} runs are resumable — the budgeted entry
   points discard theirs, so a truncated one is never observable. *)
type frontier = {
  f_depth : int;
  f_alive : (Exec.t * Rat.t) list;
  f_finished : (Exec.t * Rat.t) list;
}

let initial auto =
  { f_depth = 0; f_alive = [ (Exec.init (Psioa.start auto), Rat.one) ]; f_finished = [] }

(* Layer-loop instruments (shared by name with any other reader:
   registration is idempotent). The frontier-width histogram is fed once
   per layer; [measure.truncation_deficit] mirrors the [`Truncated]
   deficit exactly ([Rat.to_string], reparsable with [Rat.of_string]) and
   reads "0" after an [`Exact] run. *)
let h_width = Obs.histogram "measure.frontier.width"
let c_layers = Obs.counter "measure.layers"
let c_finished = Obs.counter "measure.finished"
let c_truncated = Obs.counter "measure.truncated"
let c_choice_hit = Obs.counter "measure.choice.hit"
let c_choice_miss = Obs.counter "measure.choice.miss"
let g_deficit = Obs.gauge "measure.truncation_deficit"

(* Compression instruments. [measure.frontier.width_compressed] mirrors
   [measure.frontier.width] but records the post-quotient width of each
   layer; [quotient.classes] / [quotient.merged] count the surviving
   classes and the entries absorbed into another representative across
   the run; [quotient.mass_merged] is the cumulative exact-rational mass
   those absorbed entries carried ([Rat.to_string], reparsable). *)
let h_width_c = Obs.histogram "measure.frontier.width_compressed"
let c_q_classes = Obs.counter "quotient.classes"
let c_q_merged = Obs.counter "quotient.merged"
let g_q_mass = Obs.gauge "quotient.mass_merged"

(* Per-layer memo/choice-cache hit deltas, emitted as a
   [measure.layer.stats] instant for the trace summary. One probe per
   engine run; the deltas are against the previous layer of the same run,
   so [prev] must start from the counters' values {e at probe creation}
   (the run start). Starting from zero — the historical bug — made the
   first layer of every run after the first report the whole process
   history: two engine runs in one process corrupted each other's
   [measure.layer.stats] instants. *)
let layer_stats_probe () =
  let tracked =
    [| ("choice_hit", "measure.choice.hit"); ("choice_miss", "measure.choice.miss");
       ("memo_hit", "psioa.memo.step.hit"); ("memo_miss", "psioa.memo.step.miss") |]
  in
  let prev = Array.map (fun (_, name) -> Obs.counter_value name) tracked in
  fun ~layer ->
    if Trace.enabled () then begin
      let args = ref [] in
      Array.iteri
        (fun i (label, name) ->
          let v = Obs.counter_value name in
          if v - prev.(i) <> 0 then
            args := (label, string_of_int (v - prev.(i))) :: !args;
          prev.(i) <- v)
        tracked;
      if !args <> [] then
        Trace.instant
          ~args:(fun () -> ("layer", string_of_int layer) :: List.rev !args)
          "measure.layer.stats"
    end

(* ------------------------------------------------------- building blocks *)

(* [(probability desc, Exec.compare asc)]: a total order on any frontier
   (two distinct cone branches are distinct executions, so [Exec.compare]
   never ties). Budget pruning keeps a prefix of it. *)
let by_mass (e1, p1) (e2, p2) =
  let c = Rat.compare p2 p1 in
  if c <> 0 then c else Exec.compare e1 e2

(* Keep the [keep] most probable entries of a frontier and return the
   dropped mass. The kept set, the kept order and the dropped-mass sum are
   independent of the input permutation, which is what makes budgeted
   truncation deterministic. Only ever called when a budget is exceeded:
   the unbudgeted path never sorts. *)
let truncate_entries ~keep entries =
  Trace.span ~args:(fun () -> [ ("keep", string_of_int keep) ]) "measure.truncate"
  @@ fun () ->
  let arr = Array.of_list entries in
  Array.stable_sort by_mass arr;
  let kept = ref [] and lost = ref Rat.zero in
  Array.iteri
    (fun i ((_, p) as entry) ->
      if i < keep then kept := entry :: !kept else lost := Rat.add !lost p)
    arr;
  Obs.add c_truncated (Stdlib.max 0 (Array.length arr - keep));
  (List.rev !kept, !lost)

(* Keyed by [(length, last state)], hashed all the way down like
   {!Psioa.memoize}'s tables. *)
module Ctbl = Hashtbl.Make (struct
  type t = int * Value.t

  let equal (n1, q1) (n2, q2) = n1 = n2 && Value.equal q1 q2
  let hash k = Hashtbl.hash_param 256 256 k
end)

(* Validated scheduler choice. For a {!Scheduler.is_memoryless} scheduler
   the validated choice is a function of [(length, lstate)] alone, so it
   is cached for the run. *)
let choice_fn auto sched =
  if Scheduler.is_memoryless sched then begin
    let tbl = Ctbl.create 32 in
    fun e ->
      let key = (Exec.length e, Exec.lstate e) in
      match Ctbl.find_opt tbl key with
      | Some d ->
          Obs.incr c_choice_hit;
          d
      | None ->
          Obs.incr c_choice_miss;
          let d = Scheduler.validate_choice auto sched e in
          Ctbl.add tbl key d;
          d
  end
  else fun e -> Scheduler.validate_choice auto sched e

let finish alive finished lost =
  if Obs.enabled () then Obs.set_gauge g_deficit (Rat.to_string lost);
  let d = Dist.make ~compare:Exec.compare (List.rev_append finished alive) in
  if Rat.is_zero lost then `Exact d else `Truncated (d, lost)

(* Quotient merging is sound exactly when the scheduler's future choices
   are a function of [(length, last state)] — the {!Scheduler.is_memoryless}
   promise. With a history-dependent scheduler [`Quotient] silently
   degrades to [`Off], which is always sound. *)
let quotient_on ~compress sched =
  (match compress with `Quotient -> true | `Off -> false)
  && Scheduler.is_memoryless sched

(* One layer of on-the-fly quotient: pool probabilistically-bisimilar
   frontier entries onto their minimal representative before the next
   expansion. [qmass] accumulates the absorbed mass for the run gauge. *)
let compress_layer ~sig_of ~track ~qmass entries =
  let classes, merged, mass = Quotient.merge_frontier ~sig_of ?track entries in
  if not (Rat.is_zero mass) then qmass := Rat.add !qmass mass;
  if Obs.enabled () then begin
    Obs.add c_q_classes (List.length classes);
    Obs.add c_q_merged merged;
    Obs.observe h_width_c (List.length classes)
  end;
  classes

(* Book a node's halting mass, if any, as a finished execution. *)
let add_halt e h finished =
  if Rat.is_zero h then finished
  else begin
    Obs.incr c_finished;
    (e, h) :: finished
  end

(* One cone node's expansion. Pushes the node's children onto [kids] and
   returns its halting mass. A raise from the scheduler or a transition
   lookup can leave some children pushed; the layer loop then aborts the
   run, so they are never seen. *)
let expand_node auto choice_of (e, p) kids =
  let choice = choice_of e in
  let q = Exec.lstate e in
  Dist.iter
    (fun act pa ->
      let eta = Psioa.step auto q act in
      let pa = Rat.mul p pa in
      Dist.iter (fun q' pq -> kids := (Exec.extend e act q', Rat.mul pa pq) :: !kids) eta)
    choice;
  if Dist.is_proper choice then Rat.zero else Rat.mul p (Dist.deficit choice)

(* ------------------------------------------------------------ layer loop *)

(* Iteratively expand the cone frontier, one layer at a time. [alive]
   holds executions the scheduler may still extend, [finished] the
   accumulated halting mass. After each expansion the layer post-step
   applies, in this order: the quotient, the width budget, the exec
   budget. A raise from the scheduler surfaces at once, for the first
   failing entry in frontier order. *)
let layer_loop ~compress ~track ?max_execs ?max_width ~from auto sched ~depth =
  (* One run's view of the model: signature and transition lookups cached
     per [(state, action)], plus the validated-choice cache. The tables
     live only for the run. *)
  let auto = Psioa.memoize auto in
  let choice_of = choice_fn auto sched in
  let quotient = quotient_on ~compress sched in
  let sig_of = Psioa.signature auto in
  let qmass = ref Rat.zero in
  let layer_stats = layer_stats_probe () in
  let rec go step alive n_finished finished lost =
    if step = depth || alive = [] then (alive, finished, lost)
    else begin
      if Obs.enabled () then begin
        Obs.incr c_layers;
        Obs.observe h_width (List.length alive)
      end;
      let layer_tok = Trace.begin_span "measure.layer" in
      let layer_arg () = [ ("layer", string_of_int step) ] in
      let alive' = ref [] and finished' = ref finished and n_finished' = ref n_finished in
      Trace.span ~args:layer_arg "measure.expand" (fun () ->
          List.iter
            (fun ((e, _) as entry) ->
              let h = expand_node auto choice_of entry alive' in
              if not (Rat.is_zero h) then incr n_finished';
              finished' := add_halt e h !finished')
            alive);
      (* Quotient before the budgets: the frontier the budgets see — and
         prune, by the same total order — is the compressed one, so
         compression reduces truncation instead of competing with it. *)
      let alive' =
        if quotient then
          Trace.span ~args:layer_arg "measure.quotient" (fun () ->
              compress_layer ~sig_of ~track ~qmass !alive')
        else !alive'
      in
      (* Width budget: prune the frontier to its most probable executions,
         accounting the pruned mass as truncation deficit. *)
      let alive', lost =
        match max_width with
        | Some w when List.length alive' > w ->
            let kept, dropped = truncate_entries ~keep:w alive' in
            (kept, Rat.add lost dropped)
        | _ -> (alive', lost)
      in
      (* Support budget: once completed + frontier executions exceed the
         cap, stop expanding — the surviving frontier is reported as
         completed (a partial measure), the rest as deficit. *)
      let stop, alive', lost =
        match max_execs with
        | Some cap when !n_finished' + List.length alive' > cap ->
            let kept, dropped = truncate_entries ~keep:(max 0 (cap - !n_finished')) alive' in
            (true, kept, Rat.add lost dropped)
        | _ -> (false, alive', lost)
      in
      layer_stats ~layer:step;
      Trace.end_span
        ~args:(fun () -> layer_arg () @ [ ("width", string_of_int (List.length alive)) ])
        layer_tok;
      if stop then (alive', !finished', lost)
      else go (step + 1) alive' !n_finished' !finished' lost
    end
  in
  let alive, finished, lost =
    go from.f_depth from.f_alive (List.length from.f_finished) from.f_finished Rat.zero
  in
  if quotient && Obs.enabled () then Obs.set_gauge g_q_mass (Rat.to_string !qmass);
  ( finish alive finished lost,
    { f_depth = depth; f_alive = alive; f_finished = finished } )

(* ---------------------------------------------------------- entry points *)

(* Every exact entry point funnels through here, so one span covers the
   whole engine run; it carries [resume_from] exactly when the caller
   asked for a resumable frontier. The layer loop stops at [step = depth],
   so a negative depth would never stop on a non-halting automaton. *)
let run ?max_execs ?max_width ?(compress = `Off) ?track ?from auto sched ~depth =
  if depth < 0 then
    invalid_arg (Printf.sprintf "Measure: depth %d is negative" depth);
  Trace.span "measure.exec_dist"
    ~args:(fun () ->
      ("depth", string_of_int depth)
      :: (match from with
         | Some f -> [ ("resume_from", string_of_int f.f_depth) ]
         | None -> []))
  @@ fun () ->
  let from = match from with Some f -> f | None -> initial auto in
  layer_loop ~compress ~track ?max_execs ?max_width ~from auto sched ~depth

let drop_tag = function `Exact d | `Truncated (d, _) -> d

let exec_dist_budgeted ?max_execs ?max_width ?compress auto sched ~depth =
  fst (run ?max_execs ?max_width ?compress auto sched ~depth)

let exec_dist ?compress auto sched ~depth =
  drop_tag (fst (run ?compress auto sched ~depth))

(* Resuming is bit-identical to a one-shot run at the larger depth: every
   alive entry of a depth-[d] frontier has length [d], {!Dist.make}
   normalizes away list order, rational mass addition is exact and
   commutative, and the quotient's representative choice is
   [Exec.compare]-minimal per class — none of them can see how the prefix
   layers were computed. *)
let exec_dist_frontier ?compress ?from auto sched ~depth =
  let from =
    match from with
    | Some f when f.f_depth > depth ->
        invalid_arg
          (Printf.sprintf
             "Measure.exec_dist_frontier: resume frontier is at depth %d, deeper \
              than the requested depth %d"
             f.f_depth depth)
    | Some f -> f
    | None -> initial auto
  in
  let res, frontier = run ?compress ~from auto sched ~depth in
  (drop_tag res, frontier)

(* ------------------------------------- cones, traces, reachability *)

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

let trace_of auto = Exec.trace ~sig_of:(Psioa.signature auto)

let trace_dist auto sched ~depth =
  Dist.map
    ~compare:(Cdse_util.Order.list Action.compare)
    (trace_of auto)
    (exec_dist auto sched ~depth)

(* Probabilistic reachability: mass of completed executions that visit a
   state satisfying the predicate within the depth bound. [pred] is passed
   to the engine as the [?track] refinement, so the quotient never merges a
   pred-hitting execution with a pred-missing one — the mass below stays
   exact under every compression level. *)
let reach_mass ~pred d =
  Dist.fold (fun acc e p -> if Exec.exists_state pred e then Rat.add acc p else acc) Rat.zero d

let reach_prob_budgeted ?max_execs ?max_width auto sched ~depth ~pred =
  match fst (run ?max_execs ?max_width ~track:pred auto sched ~depth) with
  | `Exact d -> `Exact (reach_mass ~pred d)
  | `Truncated (d, lost) -> `Truncated (reach_mass ~pred d, lost)

let reach_prob ?compress auto sched ~depth ~pred =
  reach_mass ~pred (drop_tag (fst (run ?compress ~track:pred auto sched ~depth)))

(* Expected number of scheduled steps of the completed execution. *)
let expected_steps auto sched ~depth =
  Dist.expect (fun e -> Rat.of_int (Exec.length e)) (exec_dist auto sched ~depth)

(* Monte-Carlo estimation: drive sampled runs instead of expanding the
   exact cone tree. The estimator trades exactness for scale — the exact
   computation is exponential in depth on branching systems (experiment
   E7), while sampling is linear in [samples × depth]. *)
let sample_exec auto sched ~rng ~depth =
  if depth < 0 then
    invalid_arg (Printf.sprintf "Measure.sample_exec: depth %d is negative" depth);
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

module For_tests = struct
  let truncate_entries = truncate_entries
end
