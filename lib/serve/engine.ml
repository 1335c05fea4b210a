open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_secure
open Cdse_crypto
module Obs = Cdse_obs.Obs

let c_model_hit = Obs.counter "serve.model.hit"
let c_model_miss = Obs.counter "serve.model.miss"
let c_resume = Obs.counter "serve.cache.resume"

type t = {
  cache : Cache.t;
  models : (string, Psioa.t) Hashtbl.t;
  models_mutex : Mutex.t;
  par_mutex : Mutex.t;
  default_domains : int;
}

let create ?(cache_cap = 64) ?(domains = 1) () =
  {
    cache = Cache.create ~cap:cache_cap;
    models = Hashtbl.create 16;
    models_mutex = Mutex.create ();
    par_mutex = Mutex.create ();
    default_domains = domains;
  }

let model t spec =
  let key = Protocol.model_key spec in
  Mutex.lock t.models_mutex;
  let auto =
    match Hashtbl.find_opt t.models key with
    | Some auto ->
        Obs.incr c_model_hit;
        auto
    | None ->
        Obs.incr c_model_miss;
        (* Built under the lock: elaboration is cheap (small generators)
           and this guarantees one automaton per spec, which downstream
           memo tables key on physically. *)
        let auto = Protocol.build_model spec in
        Hashtbl.add t.models key auto;
        auto
  in
  Mutex.unlock t.models_mutex;
  auto

(* Multicore queries serialize here: the measure engine spawns its own
   worker domains per call, so two concurrent domains=4 requests would want 8
   cores. Running them one after another keeps the daemon's footprint at
   [max domains] regardless of client concurrency. Single-domain queries
   bypass the lock and run fully concurrently. *)
let with_domains t ~domains f =
  if domains <= 1 then f ()
  else begin
    Mutex.lock t.par_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.par_mutex) f
  end

type measure_result = {
  m_dist : Exec.t Dist.t;
  m_deficit : Rat.t option;
  m_cached : bool;
  m_resumed_from : int option;
  m_render : string option ref;
}

let measure t (q : Protocol.query) =
  let key = Protocol.query_key q in
  match Cache.find t.cache ~key with
  | Some e ->
      {
        m_dist = e.Cache.e_dist;
        m_deficit = e.Cache.e_deficit;
        m_cached = true;
        m_resumed_from = None;
        m_render = e.Cache.e_render;
      }
  | None ->
      let auto = model t q.q_model in
      let sched = Protocol.build_sched auto q.q_sched in
      let domains = Option.value ~default:t.default_domains q.q_domains in
      let line = Protocol.query_line q in
      if Protocol.is_budgeted q then begin
        (* Budgeted: the truncation frontier depends on the budget, so
           neither storing nor resuming frontiers is sound. Exact-key
           caching still applies (budgets are part of the key). *)
        let res =
          with_domains t ~domains (fun () ->
              Measure.exec_dist_budgeted ~memo:q.q_memo
                ?max_execs:q.q_max_execs ?max_width:q.q_max_width ~domains
                ~compress:q.q_compress auto sched ~depth:q.q_depth)
        in
        let dist, deficit =
          match res with
          | `Exact d -> (d, None)
          | `Truncated (d, lost) -> (d, Some lost)
        in
        let render = ref None in
        Cache.add t.cache ~key ~line ~depth:q.q_depth ~dist ?deficit ~render ();
        {
          m_dist = dist;
          m_deficit = deficit;
          m_cached = false;
          m_resumed_from = None;
          m_render = render;
        }
      end
      else begin
        let from = Cache.best_frontier t.cache ~line ~depth:q.q_depth in
        (match from with Some _ -> Obs.incr c_resume | None -> ());
        let dist, frontier =
          with_domains t ~domains (fun () ->
              Measure.exec_dist_frontier ~memo:q.q_memo
                ~domains ~compress:q.q_compress ?from auto sched
                ~depth:q.q_depth)
        in
        let render = ref None in
        Cache.add t.cache ~key ~line ~depth:q.q_depth ~dist ~frontier ~render ();
        {
          m_dist = dist;
          m_deficit = None;
          m_cached = false;
          m_resumed_from =
            Option.map (fun f -> f.Measure.f_depth) from;
          m_render = render;
        }
      end

let reach t (q : Protocol.query) ~state =
  let target = Value.of_bits state in
  let pred v = Value.equal v target in
  match q.q_compress with
  | `Quotient ->
      (* The quotient needs [pred] as a track refinement while it merges
         classes, so reach under quotient goes straight to the engine
         (uncached — the refined computation is not the cached one). *)
      let auto = model t q.q_model in
      let sched = Protocol.build_sched auto q.q_sched in
      let domains = Option.value ~default:t.default_domains q.q_domains in
      let p =
        with_domains t ~domains (fun () ->
            Measure.reach_prob ~memo:q.q_memo ?max_execs:q.q_max_execs
              ?max_width:q.q_max_width ~domains ~compress:`Quotient auto
              sched ~depth:q.q_depth ~pred)
      in
      (p, false)
  | `Off | `Hcons ->
      let r = measure t q in
      let p =
        Dist.fold
          (fun acc e pr ->
            if List.exists pred (Exec.states e) then Rat.add acc pr else acc)
          Rat.zero r.m_dist
      in
      (p, r.m_cached)

let emulate ~protocol ~broken =
  match protocol with
  | `Channel ->
      let real =
        if broken then Secure_channel.real_leaky "sc"
        else Secure_channel.real "sc"
      in
      Emulation.check
        ~schema:(Schema.deterministic ~bound:12)
        ~insight_of:Insight.accept
        ~envs:[ Secure_channel.env_guess ~msg:1 "sc" ]
        ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14
        ~adversaries:[ Secure_channel.adversary "sc" ]
        ~sim_for:(fun _ -> Secure_channel.simulator "sc")
        ~real
        ~ideal:(Secure_channel.ideal "sc")
  | `Coin_flip ->
      let real =
        if broken then Coin_flip.real_cheating "cf" else Coin_flip.real "cf"
      in
      Emulation.check
        ~schema:(Schema.deterministic ~bound:14)
        ~insight_of:Insight.accept
        ~envs:[ Coin_flip.env_result "cf" ]
        ~eps:Rat.zero ~q1:14 ~q2:14 ~depth:16
        ~adversaries:[ Coin_flip.adversary "cf" ]
        ~sim_for:(fun _ -> Coin_flip.simulator "cf")
        ~real
        ~ideal:(Coin_flip.ideal "cf")
  | `Secret_share ->
      let real =
        if broken then Secret_share.transparent "ss" else Secret_share.real "ss"
      in
      Emulation.check
        ~schema:(Schema.deterministic ~bound:12)
        ~insight_of:Insight.accept
        ~envs:[ Secret_share.env_guess ~secret:1 "ss" ]
        ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14
        ~adversaries:[ Secret_share.adversary "ss" ]
        ~sim_for:(fun _ -> Secret_share.simulator "ss")
        ~real
        ~ideal:(Secret_share.ideal "ss")
  | `Broadcast ->
      (* No broken variant exists for broadcast; [broken] is ignored, as
         in the CLI. *)
      let k = 2 in
      Emulation.check
        ~schema:(Schema.deterministic ~bound:12)
        ~insight_of:Insight.accept
        ~envs:[ Broadcast.env_all_delivered ~k ~msg:1 "bc" ]
        ~eps:Rat.zero ~q1:12 ~q2:12 ~depth:14
        ~adversaries:[ Broadcast.adversary ~k "bc" ]
        ~sim_for:(fun _ -> Broadcast.simulator ~k "bc")
        ~real:(Broadcast.real ~k "bc")
        ~ideal:(Broadcast.ideal ~k "bc")
