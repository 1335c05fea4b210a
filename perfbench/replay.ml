(* The traced run: per-layer numbers for one workload.

   A prefix of the workload's own sequence of rounds goes through the real
   path once (the daemon, or E18's own checks), then is replayed
   in-process three times — untraced, traced, untraced — calling
   each layer's public function directly, inside spans recorded here in
   the benchmark (the program's own spans are left to the layer that
   called them). A layer's self time is its span's duration minus the time
   its child spans cover. The replay must reproduce the real path's
   outputs byte for byte (serve) or verdict for verdict (E18). *)

open Cdse
module Json = Cdse_serve.Json
module P = Cdse_serve.Protocol
module Engine = Cdse_serve.Engine
module Codec = Cdse_serve.Codec

let now = Wire.now
let trace_capacity = 1 lsl 20

let c_model_miss = Obs.counter "serve.model.miss"
let c_resume = Obs.counter "serve.cache.resume"

(* The measured per-layer values, by metric name. *)
type layers = (string, float) Hashtbl.t

(* A span around a call that may run the measure engine, carrying whether
   it was a cache hit and whether it resumed a cached frontier. Arguments
   are forced before the span's end is stamped, so they stay cheap. *)
let engine_span name ~id f =
  let r0 = Obs.count c_resume in
  let cached = ref false in
  Trace.span name
    ~args:(fun () ->
      [
        ("id", string_of_int id);
        ("resumed", string_of_bool (Obs.count c_resume > r0));
        ("cached", string_of_bool !cached);
      ])
    (fun () ->
      let r, c = f () in
      cached := c;
      r)

let to_string ~dist j =
  let s = ref "" in
  Trace.span "json.to_string"
    ~args:(fun () -> [ ("dist", string_of_bool dist); ("bytes", string_of_int (String.length !s)) ])
    (fun () ->
      s := if dist then Json.to_string j else Json.to_string j ^ "\n";
      !s)

let num i = Json.Num (float_of_int i)

type served = {
  reply : string;  (** the reply line and its newline, as [Server] writes it *)
  rendered : Exec.t Dist.t option;  (** the dist, when this request rendered it *)
  execs : int;  (** executions the engine computed; 0 on a cache hit *)
}

(* One request through the layers, in the order [Server] runs them. The
   registry lookup is called out on its own so its cost and hit ratio are
   visible; [Engine.measure] then finds the model registered. *)
let serve_one eng ~id line =
  Trace.span "request" ~args:(fun () -> [ ("id", string_of_int id) ]) @@ fun () ->
  let req = Trace.span "protocol.parse_request" (fun () -> P.parse_request line) in
  let model q =
    let m0 = Obs.count c_model_miss in
    Trace.span "engine.model"
      ~args:(fun () -> [ ("hit", string_of_bool (Obs.count c_model_miss = m0)) ])
      (fun () -> ignore (Engine.model eng q.P.q_model))
  in
  let result, rendered, execs =
    match req.P.r_op with
    | P.Measure q ->
        model q;
        let r =
          engine_span "engine.measure" ~id (fun () ->
              let r = Engine.measure eng q in
              (r, r.Engine.m_cached))
        in
        let dist, rendered =
          match !(r.Engine.m_render) with
          | Some s -> (Json.Raw s, None)
          | None ->
              let j = Trace.span "codec.dist_to_json" (fun () -> Codec.dist_to_json r.Engine.m_dist) in
              let s = to_string ~dist:true j in
              r.Engine.m_render := Some s;
              (Json.Raw s, Some r.Engine.m_dist)
        in
        let lost, tag =
          match r.Engine.m_deficit with
          | None -> (Rat.zero, "exact")
          | Some l -> (l, "truncated")
        in
        ( Json.Obj
            [
              ("depth", num q.P.q_depth);
              ("tag", Json.Str tag);
              ("lost", Json.Str (Rat.to_string lost));
              ("dist", dist);
              ("cached", Json.Bool r.Engine.m_cached);
              ( "resumed_from",
                match r.Engine.m_resumed_from with Some d -> num d | None -> Json.Null );
            ],
          rendered,
          if r.Engine.m_cached then 0 else Dist.size r.Engine.m_dist )
    | P.Reach (q, state) ->
        model q;
        let p, cached = engine_span "engine.reach" ~id (fun () ->
              let r = Engine.reach eng q ~state in
              (r, snd r)) in
        (* [Engine.reach] folds over the cached result; look it up again,
           outside the layer spans, to count it. *)
        let execs = if cached then 0 else Dist.size (Engine.measure eng q).Engine.m_dist in
        (Json.Obj [ ("prob", Json.Str (Rat.to_string p)); ("cached", Json.Bool cached) ], None, execs)
    | _ -> invalid_arg "Replay.serve_one: not a measure or reach request"
  in
  let reply =
    to_string ~dist:false (Json.Obj [ ("id", num id); ("ok", Json.Bool true); ("result", result) ])
  in
  { reply; rendered; execs }

(* ----------------------------------------------------- span accounting *)

let serve_spans =
  [ "request"; "protocol.parse_request"; "engine.model"; "engine.measure"; "engine.reach";
    "codec.dist_to_json"; "json.to_string" ]

let verdict_spans =
  [ "verdict"; "verdict.build"; "structured.aact_universe"; "emulation.hide_compose";
    "schema.bounded_instantiate"; "insight.apply_real"; "insight.apply_ideal";
    "stat.sup_set_distance"; "stat.max_gap_point" ]

(* Self time of every benchmark span: its duration minus its direct
   children's. Spans of one thread nest, so a stack over the spans sorted
   by start (longest first on ties) finds each span's parent. *)
let self_times names =
  let evs =
    List.filter
      (fun e -> (not e.Trace.ev_instant) && e.Trace.ev_dom = 0 && List.mem e.Trace.ev_name names)
      (Trace.events ())
  in
  let evs =
    List.stable_sort
      (fun a b ->
        match Float.compare a.Trace.ev_ts b.Trace.ev_ts with
        | 0 -> Float.compare b.Trace.ev_dur a.Trace.ev_dur
        | c -> c)
      evs
  in
  let out = ref [] and stack = ref [] in
  let pop () =
    match !stack with
    | (e, kids) :: rest ->
        stack := rest;
        out := (e, e.Trace.ev_dur -. !kids) :: !out
    | [] -> ()
  in
  List.iter
    (fun e ->
      let rec unwind () =
        match !stack with
        | (p, _) :: _ when p.Trace.ev_ts +. p.Trace.ev_dur <= e.Trace.ev_ts +. 1e-6 ->
            pop ();
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with (_, kids) :: _ -> kids := !kids +. e.Trace.ev_dur | [] -> ());
      stack := (e, ref 0.0) :: !stack)
    evs;
  while !stack <> [] do pop () done;
  List.rev !out

let arg e k = List.assoc_opt k e.Trace.ev_args

let select ?(where = fun _ -> true) name spans =
  List.filter (fun (e, _) -> String.equal e.Trace.ev_name name && where e) spans

let total xs = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 xs

(* Mean self time per call, in µs; 0 when the layer was never called. *)
let per_call xs = Stats.ratio (total xs) (float_of_int (List.length xs))

let int_arg e k = match arg e k with Some v -> float_of_string v | None -> 0.0

(* Share of the replay's wall time that the layer spans under each parent
   (request or verdict) cover. *)
let coverage ~parent spans ~wall =
  Stats.ratio
    (List.fold_left (fun acc (e, self) -> acc +. (e.Trace.ev_dur -. self)) 0.0 (select parent spans))
    wall

let memo_counters =
  [ ("psioa.memo.sig.hit", true); ("psioa.memo.sig.miss", false);
    ("psioa.memo.step.hit", true); ("psioa.memo.step.miss", false);
    ("measure.choice.hit", true); ("measure.choice.miss", false) ]

let memo_snapshot () = List.map (fun (n, _) -> Obs.counter_value n) memo_counters

let memo_hit_ratio before after =
  let hits = ref 0 and all = ref 0 in
  List.iteri
    (fun i (_, hit) ->
      let d = List.nth after i - List.nth before i in
      all := !all + d;
      if hit then hits := !hits + d)
    memo_counters;
  Stats.ratio (float_of_int !hits) (float_of_int !all)

(* Runs [pass] once to warm up, then untraced, traced, untraced. Each
   pass returns its operations with their times; the tracing overhead is
   the median over operations of the traced time against the mean
   untraced time, which one slow pass does not swing. *)
let three_passes pass =
  ignore (pass ~traced:false);
  let a, _, _ = pass ~traced:false in
  let traced, wall, memo = pass ~traced:true in
  let b, _, _ = pass ~traced:false in
  let ratios =
    List.map2 (fun ((_, ta), (_, tt)) (_, tb) -> tt /. ((ta +. tb) /. 2.0)) (List.combine a traced) b
  in
  (traced, b, wall, memo, Stats.median ratios -. 1.0)

(* Every pass starts from a compacted heap, so one pass's garbage does not
   slow the next. *)
let traced_pass ~traced body =
  Gc.compact ();
  if traced then Trace.start ~capacity:trace_capacity ();
  let m0 = memo_snapshot () in
  let t0 = now () in
  let r = body () in
  let wall = now () -. t0 in
  let m1 = memo_snapshot () in
  if traced then Trace.stop ();
  (r, wall, (m0, m1))

(* Checks the written Chrome trace with the wire protocol's JSON reader:
   well-formed events, and at least one of each parent span. *)
let check_chrome file ~parent =
  let ic = open_in_bin file in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.member "traceEvents" (Json.parse s) with
  | Some (Json.List evs) ->
      let ok_event e =
        match (Json.member "name" e, Json.member "ph" e) with
        | Some (Json.Str _), Some (Json.Str "X") -> (
            match (Json.member "ts" e, Json.member "dur" e, Json.member "tid" e) with
            | Some (Json.Num _), Some (Json.Num d), Some (Json.Num _) -> d >= 0.0
            | _ -> false)
        | Some (Json.Str _), Some (Json.Str ("i" | "M")) -> true
        | _ -> false
      in
      List.for_all ok_event evs
      && List.exists (fun e -> Json.member "name" e = Some (Json.Str parent)) evs
  | _ -> false

let checked_chrome file ~parent =
  if check_chrome file ~parent then 0
  else begin
    Printf.eprintf "perfbench: the Chrome trace %s is malformed\n" file;
    1
  end

(* ------------------------------------------------------------- serve *)

let stat_int stats path =
  let j =
    List.fold_left
      (fun j k -> match Json.member k j with Some v -> v | None -> Json.Null)
      stats path
  in
  match Json.to_int j with Some i -> float_of_int i | None -> 0.0

let to_bits_probe dists =
  let render = ref 0.0 and bits = ref 0.0 in
  List.iter
    (fun d ->
      let t0 = now () in
      ignore (Json.to_string (Codec.dist_to_json d));
      let t1 = now () in
      Dist.iter
        (fun e _ ->
          ignore (Value.to_bits (Exec.fstate e));
          List.iter
            (fun (a, q) ->
              ignore (Action.to_bits a);
              ignore (Value.to_bits q))
            (Exec.steps e))
        d;
      render := !render +. (t1 -. t0);
      bits := !bits +. (now () -. t1))
    dists;
  Stats.ratio !bits !render

(* Returns the measured layers and the number of operations whose replay
   disagreed with the real path (plus one for a malformed trace file). *)
let serve (cfg : Timed.serve) ~prefix ~trace_file : layers * int =
  let ops = cfg.Timed.ops in
  let reqs =
    Array.init prefix (fun j -> snd (ops.Gen.op ~round:(j / ops.Gen.size) (j mod ops.Gen.size)))
  in
  let lines = Array.mapi (fun i r -> Gen.line ~id:(i + 1) r) reqs in
  (* The real path: the daemon, with its set-up, over the same lines. *)
  let _, d, c = Timed.setup_daemon cfg in
  let s0 = Wire.stats c in
  let daemon_replies = Hashtbl.create prefix and rtts = ref [] in
  Array.iteri
    (fun i line ->
      let reply, latency = Wire.timed_rpc c line in
      Hashtbl.replace daemon_replies (i + 1) reply;
      rtts := latency :: !rtts)
    lines;
  let s1 = Wire.stats c in
  Wire.shutdown d c;
  (* The in-process replays, each on a fresh engine given the same set-up. *)
  Obs.set_enabled true;
  let pass ~traced =
    let eng = Engine.create ~cache_cap:64 ~domains:cfg.Timed.domains () in
    List.iter (fun r -> ignore (serve_one eng ~id:0 (Gen.line ~id:0 r))) cfg.Timed.warmup;
    traced_pass ~traced (fun () ->
        List.init prefix (fun i ->
            let t0 = now () in
            let s = serve_one eng ~id:(i + 1) lines.(i) in
            (s, now () -. t0)))
  in
  let traced, untraced, wall, (m0, m1), overhead = three_passes pass in
  let spans = self_times serve_spans in
  let dropped = Trace.dropped () in
  Trace.write_chrome trace_file;
  let wrong =
    List.length
      (List.filteri
         (fun i (s, _) ->
           match Hashtbl.find_opt daemon_replies (i + 1) with
           | Some d -> d ^ "\n" <> s.reply
           | None -> true)
         traced)
  in
  (* Resumed engine calls against the same query run cold. *)
  let resumed = select "engine.reach" spans @ select "engine.measure" spans in
  let resumed = List.filter (fun (e, _) -> arg e "resumed" = Some "true") resumed in
  let saving =
    let warm = ref 0.0 and cold = ref 0.0 in
    List.iter
      (fun (e, self) ->
        let r = reqs.(int_of_float (int_arg e "id") - 1) in
        let eng = Engine.create ~cache_cap:64 ~domains:cfg.Timed.domains () in
        ignore (Engine.model eng r.Gen.query.P.q_model);
        let t0 = now () in
        (match r.Gen.state with
        | Some state -> ignore (Engine.reach eng r.Gen.query ~state)
        | None -> ignore (Engine.measure eng r.Gen.query));
        cold := !cold +. ((now () -. t0) *. 1e6);
        warm := !warm +. self)
      resumed;
    if !cold = 0.0 then 0.0 else 1.0 -. (!warm /. !cold)
  in
  let to_bits_frac =
    to_bits_probe (List.filter_map (fun (s, _) -> s.rendered) traced)
  in
  let dist_strings = select ~where:(fun e -> arg e "dist" = Some "true") "json.to_string" spans in
  let replies = select ~where:(fun e -> arg e "dist" = Some "false") "json.to_string" spans in
  let rendered_bytes = List.fold_left (fun acc (e, _) -> acc +. int_arg e "bytes") 0.0 dist_strings in
  let models = select "engine.model" spans in
  let delta path = stat_int s1 path -. stat_int s0 path in
  let hits = delta [ "cache"; "hits" ] and misses = delta [ "cache"; "misses" ] in
  let server_p50 = stat_int s1 [ "latency_us"; "p50" ] in
  let rtt_p50 = Stats.median !rtts *. 1e6 in
  let untraced_p50 = Stats.median (List.map snd untraced) *. 1e6 in
  let t = Hashtbl.create 32 in
  let set = Hashtbl.replace t in
  set "protocol.parse_us" (per_call (select "protocol.parse_request" spans));
  set "engine.model_us" (per_call models);
  set "engine.model_hit_ratio"
    (Stats.ratio
       (float_of_int (List.length (List.filter (fun (e, _) -> arg e "hit" = Some "true") models)))
       (float_of_int (List.length models)));
  set "engine.measure_miss_us"
    (per_call (select ~where:(fun e -> arg e "cached" = Some "false") "engine.measure" spans));
  set "engine.measure_hit_us"
    (per_call (select ~where:(fun e -> arg e "cached" = Some "true") "engine.measure" spans));
  set "engine.reach_us" (per_call (select "engine.reach" spans));
  set "engine.resume_saving_frac" saving;
  set "measure.execs_p50"
    (match List.filter (fun n -> n > 0) (List.map (fun (s, _) -> s.execs) traced) with
    | [] -> 0.0
    | xs -> Stats.median (List.map float_of_int xs));
  set "measure.memo_hit_ratio" (memo_hit_ratio m0 m1);
  set "codec.dist_to_json_us" (per_call (select "codec.dist_to_json" spans));
  set "json.to_string_us" (per_call (select "json.to_string" spans));
  set "codec.render_ns_per_byte"
    (Stats.ratio
       ((total (select "codec.dist_to_json" spans) +. total dist_strings) *. 1000.0)
       rendered_bytes);
  set "codec.reply_bytes_p50"
    (Stats.median (List.map (fun (e, _) -> int_arg e "bytes") replies));
  set "value.to_bits_frac" to_bits_frac;
  set "cache.hit_ratio" (Stats.ratio hits (hits +. misses));
  set "cache.evictions" (delta [ "cache"; "evictions" ]);
  set "cache.resume_ratio" (Stats.ratio (delta [ "cache"; "resumes" ]) misses);
  set "server.latency_p50_us" server_p50;
  set "server.wire_overhead_us" (rtt_p50 -. server_p50);
  set "replay.coverage_frac" (coverage ~parent:"request" spans ~wall:(wall *. 1e6));
  set "replay.trace_overhead_frac" overhead;
  set "replay.vs_daemon_ratio" (Stats.ratio untraced_p50 rtt_p50);
  set "trace.dropped" (float_of_int dropped);
  (t, wrong + checked_chrome trace_file ~parent:"request")

(* ----------------------------------------------------------- verdict *)

type replayed = { r_holds : bool; r_worst : Rat.t; r_details : Rat.t list }

(* One ≤_SE check through the layers, in the order [Emulation] and [Impl]
   run them under [Impl.default_engine]. *)
let replay_check ~id system k =
  Trace.span "verdict"
    ~args:(fun () ->
      [ ("id", string_of_int id); ("system", E18.system_name system); ("k", string_of_int k) ])
  @@ fun () ->
  let c = Trace.span "verdict.build" (fun () -> E18.build system k) in
  let hidden s adv =
    let u =
      Trace.span "structured.aact_universe" (fun () ->
          Structured.aact_universe ?max_states:c.E18.max_states ?max_depth:c.E18.max_depth s)
    in
    Trace.span "emulation.hide_compose" (fun () ->
        Hide.psioa_const (Compose.pair (Structured.psioa s) adv) u)
  in
  let a = hidden c.E18.real c.E18.adv in
  let b = hidden c.E18.ideal c.E18.sim in
  let comp_a, comp_b =
    Trace.span "emulation.hide_compose" (fun () -> (Compose.pair c.E18.env a, Compose.pair c.E18.env b))
  in
  let depth = c.E18.bound + 2 in
  let instantiate comp =
    Trace.span "schema.bounded_instantiate" (fun () ->
        Schema.bounded_instantiate c.E18.schema ~bound:c.E18.bound comp)
  in
  let apply name comp sched =
    Trace.span name (fun () ->
        Insight.apply ~memo:false ~domains:1 ~compress:`Off (Insight.accept comp) comp sched ~depth)
  in
  let worst = ref Rat.zero and holds = ref true and details = ref [] in
  List.iter
    (fun sigma1 ->
      let da = apply "insight.apply_real" comp_a sigma1 in
      let best, best_db =
        List.fold_left
          (fun (best, best_db) sigma2 ->
            let db = apply "insight.apply_ideal" comp_b sigma2 in
            let d = Trace.span "stat.sup_set_distance" (fun () -> Stat.sup_set_distance da db) in
            if Rat.compare d best < 0 then (d, Some db) else (best, best_db))
          (Rat.one, None) (instantiate comp_b)
      in
      if Rat.compare best Rat.zero > 0 then
        ignore
          (Trace.span "stat.max_gap_point" (fun () -> Option.bind best_db (Stat.max_gap_point da)));
      details := best :: !details;
      if Rat.compare best !worst > 0 then worst := best;
      if Rat.compare best Rat.zero > 0 then holds := false)
    (instantiate comp_a);
  { r_holds = !holds; r_worst = !worst; r_details = List.rev !details }

let systems = [ E18.Otp; E18.Committee ]

let verdict ~seed ~prefix ~trace_file : layers * int =
  let next = E18.points ~seed in
  let ks = List.init prefix (fun _ -> next ()) in
  (* The real path: E18's own checks, after one untimed point. *)
  List.iter (fun s -> ignore (E18.verdict s 0)) systems;
  let library, lib_times =
    List.split
      (List.map
         (fun k ->
           let t0 = now () in
           let vs = List.map (fun s -> E18.verdict s k) systems in
           (vs, now () -. t0))
         ks)
  in
  Obs.set_enabled true;
  let pass ~traced =
    traced_pass ~traced (fun () ->
        List.mapi
          (fun i k ->
            let t0 = now () in
            let vs = List.map (fun s -> replay_check ~id:(i + 1) s k) systems in
            (vs, now () -. t0))
          ks)
  in
  let traced, untraced, wall, (m0, m1), overhead = three_passes pass in
  let spans = self_times verdict_spans in
  let dropped = Trace.dropped () in
  Trace.write_chrome trace_file;
  let agrees (r, (v : Impl.verdict)) =
    r.r_holds = v.Impl.holds && Rat.equal r.r_worst v.Impl.worst
    && List.equal Rat.equal r.r_details (List.map snd v.Impl.detail)
  in
  let wrong =
    List.length
      (List.filter
         (fun ((vs, _), lib) -> not (List.for_all agrees (List.combine vs lib)))
         (List.combine traced library))
  in
  let verdicts = float_of_int (List.length (select "verdict" spans)) in
  let per_verdict names =
    List.fold_left (fun acc n -> acc +. total (select n spans)) 0.0 names /. verdicts /. 1000.0
  in
  let t = Hashtbl.create 32 in
  let set = Hashtbl.replace t in
  set "structured.aact_universe_ms" (per_verdict [ "structured.aact_universe" ]);
  set "emulation.hide_compose_ms" (per_verdict [ "emulation.hide_compose" ]);
  set "schema.bounded_instantiate_ms" (per_verdict [ "schema.bounded_instantiate" ]);
  set "insight.apply_real_ms" (per_verdict [ "insight.apply_real" ]);
  set "insight.apply_ideal_ms" (per_verdict [ "insight.apply_ideal" ]);
  set "insight.apply_calls"
    (float_of_int
       (List.length (select "insight.apply_real" spans @ select "insight.apply_ideal" spans))
    /. verdicts);
  set "stat.sup_set_distance_ms" (per_verdict [ "stat.sup_set_distance" ]);
  set "verdict.setup_frac"
    (Stats.ratio
       (per_verdict [ "verdict.build"; "structured.aact_universe"; "emulation.hide_compose" ])
       (List.fold_left (fun acc (e, _) -> acc +. e.Trace.ev_dur) 0.0 (select "verdict" spans)
       /. verdicts /. 1000.0));
  set "measure.memo_hit_ratio" (memo_hit_ratio m0 m1);
  set "replay.coverage_frac" (coverage ~parent:"verdict" spans ~wall:(wall *. 1e6));
  set "replay.trace_overhead_frac" overhead;
  set "replay.vs_daemon_ratio"
    (Stats.ratio (Stats.median (List.map snd untraced)) (Stats.median lib_times));
  set "trace.dropped" (float_of_int dropped);
  (t, wrong + checked_chrome trace_file ~parent:"verdict")
