open Cdse_prob
open Cdse_psioa
open Cdse_sched

type verdict = { holds : bool; worst : Rat.t; detail : (string * Rat.t) list }

type engine = [ `Off ]

let default_engine = `Off

(* For every environment and each σ1 over E‖A, the best distance to a
   candidate σ2 over E‖B. The candidates are instantiated when the first
   σ1 needs them and shared by the rest; each candidate's f-dist is lazy
   and forced where it is first compared, so it is measured once per
   environment, in the order the search meets it. *)
let approx_le ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~a ~b =
  let fdist composite sched = Insight.apply (insight_of composite) composite sched ~depth in
  let detail = ref [] in
  let worst = ref Rat.zero in
  let holds = ref true in
  List.iter
    (fun env ->
      Cdse_obs.Trace.span "emulation.env"
        ~args:(fun () -> [ ("env", Psioa.name env) ])
      @@ fun () ->
      let comp_a = Compose.pair env a in
      let comp_b = Compose.pair env b in
      let candidates =
        lazy
          (List.map
             (fun sigma2 -> (sigma2, lazy (fdist comp_b sigma2)))
             (Schema.bounded_instantiate schema ~bound:q2 comp_b))
      in
      List.iter
        (fun sigma1 ->
          Cdse_obs.Trace.span "emulation.sched"
            ~args:(fun () -> [ ("sched", sigma1.Scheduler.name) ])
          @@ fun () ->
          let da = fdist comp_a sigma1 in
          let best, witness, best_db =
            List.fold_left
              (fun (best, witness, best_db) (sigma2, db) ->
                let db = Lazy.force db in
                let d = Stat.sup_set_distance da db in
                if Rat.compare d best < 0 then (d, sigma2.Scheduler.name, Some db)
                else (best, witness, best_db))
              (Rat.one, "<none>", None)
              (Lazy.force candidates)
          in
          let entry = Printf.sprintf "%s / %s ⇒ %s" (Psioa.name env) sigma1.Scheduler.name witness in
          let entry =
            (* On failure, attach the distinguishing observation — the
               ζ of Definition 3.6 carrying the largest mass gap. *)
            if Rat.compare best eps > 0 then
              match Option.bind best_db (Stat.max_gap_point da) with
              | Some (obs, gap) ->
                  Printf.sprintf "%s [distinguished by %s, gap %s]" entry (Value.to_string obs)
                    (Rat.to_string gap)
              | None -> entry
            else entry
          in
          detail := (entry, best) :: !detail;
          if Rat.compare best !worst > 0 then worst := best;
          if Rat.compare best eps > 0 then holds := false)
        (Schema.bounded_instantiate schema ~bound:q1 comp_a))
    envs;
  { holds = !holds; worst = !worst; detail = List.rev !detail }

let merge_verdicts vs =
  { holds = List.for_all (fun v -> v.holds) vs;
    worst = List.fold_left (fun acc v -> Rat.max acc v.worst) Rat.zero vs;
    detail = List.concat_map (fun v -> v.detail) vs }

let approx_le_family ~window ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~a ~b =
  merge_verdicts
    (List.map
       (fun k ->
         let v =
           approx_le ~schema ~insight_of ~envs:(envs k) ~eps:(eps k) ~q1:(q1 k) ~q2:(q2 k)
             ~depth:(depth k) ~a:(a k) ~b:(b k)
         in
         { v with detail = List.map (fun (s, d) -> (Printf.sprintf "k=%d %s" k s, d)) v.detail })
       window)

let le_neg_pt ~window ~schema ~insight_of ~envs ~eps ~q1 ~q2 ~depth ~a ~b =
  approx_le_family ~window ~schema ~insight_of ~envs ~eps
    ~q1:(Cdse_util.Poly.eval q1) ~q2:(Cdse_util.Poly.eval q2) ~depth ~a ~b


(* Hybrid chains: pairwise distances along [A₀ … Aₙ] and the end-to-end
   distance, with the triangle bound Σ εᵢ — the quantitative backbone of
   hybrid arguments and of Theorem 4.16's slack accounting. *)
type chain_report = {
  pairwise : Rat.t list;
  total_bound : Rat.t;
  direct : Rat.t;
  triangle_holds : bool;
}

let triangle_chain ~schema ~insight_of ~envs ~q ~depth automata =
  let dist a b =
    (approx_le ~schema ~insight_of ~envs ~eps:Rat.one ~q1:q ~q2:q ~depth ~a ~b).worst
  in
  let rec pairs = function
    | a :: (b :: _ as rest) -> dist a b :: pairs rest
    | _ -> []
  in
  match automata with
  | [] | [ _ ] -> { pairwise = []; total_bound = Rat.zero; direct = Rat.zero; triangle_holds = true }
  | first :: _ ->
      let last = List.nth automata (List.length automata - 1) in
      let pairwise = pairs automata in
      let total_bound = Rat.sum pairwise in
      let direct = dist first last in
      { pairwise; total_bound; direct; triangle_holds = Rat.compare direct total_bound <= 0 }

