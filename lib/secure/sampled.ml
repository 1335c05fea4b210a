open Cdse_prob
open Cdse_psioa
open Cdse_sched

type verdict = { holds : bool; worst : float; samples : int }

let empirical_fdist ~insight composite sched ~depth ~samples ~rng =
  Fprob.make ~compare:Value.compare
    (Measure.estimate_fdist composite sched ~observe:insight.Insight.observe ~rng ~samples ~depth)

(* The empirical sup-set distance between two scheduled systems'
   observation distributions. *)
let empirical_distance ~insight_of ~sched_a ~sched_b ~depth ~samples ~seed a b =
  let rng = Rng.make seed in
  let da = empirical_fdist ~insight:(insight_of a) a sched_a ~depth ~samples ~rng in
  let db = empirical_fdist ~insight:(insight_of b) b sched_b ~depth ~samples ~rng in
  Fprob.tv_distance da db

let approx_le_sampled ~schema ~insight_of ~envs ~eps ~tolerance ~q1 ~q2 ~depth ~samples ~seed ~a
    ~b =
  let worst = ref 0.0 in
  let holds = ref true in
  List.iter
    (fun env ->
      let comp_a = Compose.pair env a in
      let comp_b = Compose.pair env b in
      List.iter
        (fun sigma1 ->
          let best =
            List.fold_left
              (fun best sigma2 ->
                Float.min best
                  (empirical_distance ~insight_of ~sched_a:sigma1 ~sched_b:sigma2 ~depth
                     ~samples ~seed comp_a comp_b))
              infinity
              (Schema.bounded_instantiate schema ~bound:q2 comp_b)
          in
          if best > !worst then worst := best;
          if best > eps +. tolerance then holds := false)
        (Schema.bounded_instantiate schema ~bound:q1 comp_a))
    envs;
  { holds = !holds; worst = !worst; samples }
