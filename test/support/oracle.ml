(* Reference measure engine for differential conformance testing.

   Computes the same depth-bounded execution measure as
   [Cdse_sched.Measure.exec_dist], but with the most naive structures that
   can express the Section 3 semantics: plain lists, no memoization, no
   arrays, no instrumentation — each layer rebuilt by literal list
   comprehension over the previous one, and the two budgets applied to it
   as measure.mli states them. Deliberately shares no code with the
   production engine, so agreement is evidence about the semantics, not
   about a common implementation. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched

(* One-step extensions of a weighted execution: for every scheduled action
   and every target state, an extended execution carrying the product
   probability. *)
let extensions auto sched (e, p) =
  let choice = Scheduler.validate_choice auto sched e in
  List.concat_map
    (fun (act, pa) ->
      let eta = Psioa.step auto (Exec.lstate e) act in
      List.map
        (fun (q', pq) -> (Exec.extend e act q', Rat.mul p (Rat.mul pa pq)))
        (Dist.items eta))
    (Dist.items choice)

(* Mass on which the scheduler halts at [e]: p × (1 − |choice|). *)
let halt_mass auto sched (e, p) =
  let choice = Scheduler.validate_choice auto sched e in
  Rat.mul p (Dist.deficit choice)

(* Split [entries] into the [keep] first and the rest, ranked by
   probability descending, then [Exec.compare]. *)
let prune ~keep entries =
  let ranked =
    List.sort
      (fun (e1, p1) (e2, p2) ->
        let c = Rat.compare p2 p1 in
        if c <> 0 then c else Exec.compare e1 e2)
      entries
  in
  (List.filteri (fun i _ -> i < keep) ranked, List.filteri (fun i _ -> i >= keep) ranked)

(* After each layer: [max_width] keeps the layer's [w] most probable
   executions; then, once completed plus frontier executions exceed
   [max_execs], the run stops and keeps only as many frontier executions
   as still fit. Pruned mass is the deficit. Returns the budgeted result
   and the number of executions pruned. *)
let exec_dist_budgeted ?max_execs ?max_width auto sched ~depth =
  let pruned = ref 0 in
  let drop ~keep alive lost =
    let kept, dropped = prune ~keep alive in
    pruned := !pruned + List.length dropped;
    (kept, List.fold_left (fun acc (_, p) -> Rat.add acc p) lost dropped)
  in
  let result finished alive lost =
    let d = Dist.make ~compare:Exec.compare (finished @ alive) in
    ((if Rat.is_zero lost then `Exact d else `Truncated (d, lost)), !pruned)
  in
  let rec go step alive finished lost =
    if step = depth || alive = [] then result finished alive lost
    else
      let finished =
        finished
        @ List.filter_map
            (fun entry ->
              let m = halt_mass auto sched entry in
              if Rat.is_zero m then None else Some (fst entry, m))
            alive
      in
      let alive = List.concat_map (extensions auto sched) alive in
      let alive, lost =
        match max_width with
        | Some w when List.length alive > w -> drop ~keep:w alive lost
        | _ -> (alive, lost)
      in
      match max_execs with
      | Some cap when List.length finished + List.length alive > cap ->
          let alive, lost = drop ~keep:(max 0 (cap - List.length finished)) alive lost in
          result finished alive lost
      | _ -> go (step + 1) alive finished lost
  in
  go 0 [ (Exec.init (Psioa.start auto), Rat.one) ] [] Rat.zero

let exec_dist auto sched ~depth =
  match exec_dist_budgeted auto sched ~depth with
  | `Exact d, _ -> d
  | `Truncated _, _ -> assert false
