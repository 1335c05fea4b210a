(* Reference measure engine for differential conformance testing.

   Computes the same depth-bounded execution measure as
   [Cdse_sched.Measure.exec_dist], but with the most naive structures that
   can express the Section 3 semantics: plain lists, no memoization, no
   budgets, no arrays, no instrumentation — each layer rebuilt by literal
   list comprehension over the previous one. Deliberately shares no code
   with the production engine, so agreement is evidence about the
   semantics, not about a common implementation. *)

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

let exec_dist auto sched ~depth =
  let rec go step alive finished =
    if step = depth || alive = [] then
      Dist.make ~compare:Exec.compare (finished @ alive)
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
      go (step + 1) alive finished
  in
  go 0 [ (Exec.init (Psioa.start auto), Rat.one) ] []
