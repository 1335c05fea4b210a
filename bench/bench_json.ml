(* Persisted benchmark trajectory: emits BENCH_cdse.json next to the repo
   root, recording the current micro ns/op numbers and wall-clock
   [Measure.exec_dist] timings (depths 3-6 on the coin / random-walk /
   committee workloads) against the pre-optimization baseline hardcoded
   below, plus (schema cdse-bench/8) a serving-layer cell that drives an
   in-process cdse_serve daemon over its Unix-socket wire protocol. Every
   cell is a [Json.t] rendered by the repo's one codec.
   Regenerate with [dune exec bench/main.exe -- micro]. *)

open Cdse

let int i = Json.Num (float_of_int i)

(* A number rendered with exactly [digits] decimals. *)
let fixed digits f = Json.Raw (Printf.sprintf "%.*f" digits f)

(* An object whose members each end a line (then [indent] spaces), so the
   file diffs cell by cell: only whitespace is added to what
   [Json.to_string] renders. *)
let lines ?(indent = 0) fields =
  let eol = "\n" ^ String.make indent ' ' in
  Json.Obj (List.map (fun (k, v) -> (k, Json.Raw (Json.to_string v ^ eol))) fields)

(* A timing against its seed-revision baseline, when there is one. *)
let entry ?(digits = 1) ?(extra = []) baseline current =
  let baseline, speedup =
    match baseline with
    | Some b -> (fixed digits b, fixed 2 (b /. current))
    | None -> (Json.Null, Json.Null)
  in
  Json.Obj
    ([ ("baseline", baseline); ("current", fixed digits current); ("speedup", speedup) ]
    @ extra)

(* ns/op on the seed revision (list-backed Dist, Bignat-only Rat, memo-free
   Measure), same bechamel config as Micro.run. *)
let micro_baseline =
  [ ("bits.append", 496.8);
    ("bignat.mul", 260.7);
    ("bignat.divmod", 51217.4);
    ("rat.add", 1019.1);
    ("value.to_bits", 63050.6);
    ("value.of_bits", 4488.3);
    ("dist.product", 253803.9);
    ("stat.distance", 14675.8);
    ("psioa.step", 795.1);
    ("measure.exec_dist", 5648.4);
    ("bisim.coin", 21497.7);
    ("measure.reach_prob", 50224.5) ]

(* ms/op for [Measure.exec_dist] on the seed revision, same workloads and
   schedulers as [measure_macro] below. *)
let macro_baseline =
  [ ("coin", [ (3, 0.0103); (4, 0.0150); (5, 0.0167); (6, 0.0167) ]);
    ("random_walk", [ (3, 0.0246); (4, 0.0603); (5, 0.1297); (6, 0.3463) ]);
    ("committee", [ (3, 0.1197); (4, 0.3131); (5, 0.5767); (6, 0.8399) ]) ]

let depths = [ 3; 4; 5; 6 ]

(* Parallel-scaling cells (schema cdse-bench/7, [exec_dist_subtree]): E7's
   widest uniform random-walk workloads, the exact cone expanded with 1,
   2 and 4 domains — the sequential layer loop at 1, the barrier-free
   subtree engine above. Times are wall-clock — the speedups reflect the
   recording host's core count, the distributions are bit-identical by
   contract either way. *)
let par_workloads = [ ("walk_b2", 2, 8); ("walk_b3", 3, 6) ]
let par_domains = [ 1; 2; 4 ]

(* State-space-compression cells (schema cdse-bench/4): lazy random walks
   whose executions are all-internal, so the on-the-fly quotient collapses
   a 2^depth frontier to at most span+1 classes per layer. Each cell
   records the wall-clock at every compression level at [depth], plus the
   quotient engine at [2 × depth] — the headline claim is that doubling
   the depth under `Quotient costs no more than the uncompressed engine at
   the original depth. (name, span, depth.) *)
let compress_workloads = [ ("random_walk", 4, 8); ("random_walk_wide", 8, 6) ]

(* Compromise-sweep cells (schema cdse-bench/5): the E18 verdicts at every
   budget k — exact ≤_SE slack (a rational string) and the holds bit for
   both swept systems, plus the wall-clock of the two checks. The slack
   trajectory is part of the recorded contract: 0 strictly below each
   system's tolerance threshold, the predicted positive rational above. *)
let compromise_budgets = [ 0; 1; 2; 3 ]

(* ----------------------------------------------------------- counters *)

(* Numeric counter keys of the per-cell "counters" block, in emission
   order. "truncation_deficit" is emitted separately as a string so the
   exact rational round-trips through [Rat.of_string], and
   "memo_hit_rate" as a float. *)
let counter_keys =
  [ "frontier_width_max"; "frontier_layers"; "finished"; "memo_hits";
    "memo_misses"; "choice_hits"; "choice_misses"; "rat_promotions";
    "sched_validations" ]

(* Run [f] once with stats enabled and return the engine counters as the
   JSON "counters" object. Collection is a separate run from the timing
   loop, which executes with stats in whatever state the caller left them
   — the emitted ms/op never includes instrumentation overhead. *)
let counters_json f =
  let (), snap = Obs.with_stats (fun () -> ignore (Sys.opaque_identity (f ()))) in
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Obs.s_counters) in
  let width_max =
    match List.assoc_opt "measure.frontier.width" snap.Obs.s_histograms with
    | Some h -> h.Obs.h_max
    | None -> 0
  in
  let hits = c "psioa.memo.step.hit" and misses = c "psioa.memo.step.miss" in
  let hit_rate =
    if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
  in
  let deficit =
    Option.value ~default:"0" (List.assoc_opt "measure.truncation_deficit" snap.Obs.s_gauges)
  in
  let num =
    List.map
      (fun k ->
        let v =
          match k with
          | "frontier_width_max" -> width_max
          | "frontier_layers" -> c "measure.layers"
          | "finished" -> c "measure.finished"
          | "memo_hits" -> hits
          | "memo_misses" -> misses
          | "choice_hits" -> c "measure.choice.hit"
          | "choice_misses" -> c "measure.choice.miss"
          | "rat_promotions" -> c "rat.promotions"
          | "sched_validations" -> c "sched.validations"
          | k -> invalid_arg ("counters_json: " ^ k)
        in
        (k, int v))
      counter_keys
  in
  Json.Obj
    (num @ [ ("memo_hit_rate", fixed 4 hit_rate); ("truncation_deficit", Json.Str deficit) ])

let wall f =
  let t0 = Unix.gettimeofday () in
  let iters = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.3 do
    ignore (Sys.opaque_identity (f ()));
    incr iters
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !iters *. 1e3

let measure_macro () =
  let workloads =
    [ ("coin", Cdse_gen.Workloads.coin "c");
      ("random_walk", Cdse_gen.Workloads.random_walk ~span:4 "w");
      ("committee", Pca.psioa (Committee.build ~max_validators:3 ~blocks:1 "cmt")) ]
  in
  List.map
    (fun (name, auto) ->
      let base = List.assoc_opt name macro_baseline in
      ( name,
        lines ~indent:2
          (List.map
             (fun depth ->
               let sched = Scheduler.bounded depth (Scheduler.uniform auto) in
               let run () = Measure.exec_dist ~memo:true auto sched ~depth in
               let counters = counters_json run in
               ( string_of_int depth,
                 entry ~digits:4 ~extra:[ ("counters", counters) ]
                   (Option.bind base (List.assoc_opt depth))
                   (wall run) ))
             depths) ))
    workloads

let par_system (name, branching, default_depth) =
  let depth = Option.value ~default:default_depth !Workbench.par_depth in
  let rng = Rng.make (branching * 1000) in
  let auto =
    Cdse_gen.Random_auto.make ~rng ~name:"walk" ~n_states:8 ~n_actions:branching
      ~branching ()
  in
  (name, depth, auto, Scheduler.uniform auto)

(* Attribution block for one exec_dist_subtree cell (schema cdse-bench/7):
   the steal fraction — donated work units over all claimed work units —
   from a stats run, and the idle fraction and worker imbalance from a
   traced run, both off the timing path. *)
let subtree_trace_json run =
  let domains = List.fold_left max 1 par_domains in
  let (), snap =
    Obs.with_stats (fun () -> ignore (Sys.opaque_identity (run ~domains ())))
  in
  let c name = Option.value ~default:0 (List.assoc_opt name snap.Obs.s_counters) in
  let roots = c "measure.subtree.roots" and steals = c "measure.subtree.steals" in
  let steal_frac =
    if roots + steals = 0 then 0.0
    else float_of_int steals /. float_of_int (roots + steals)
  in
  Trace.start ();
  ignore (Sys.opaque_identity (run ~domains ()));
  Trace.stop ();
  let sm = Trace.summary () in
  Trace.clear ();
  Json.Obj
    [ ("domains", int domains); ("idle_frac", fixed 4 sm.Trace.sm_idle_frac);
      ("steal_frac", fixed 4 steal_frac);
      ("imbalance_max_over_mean", fixed 4 sm.Trace.sm_imbalance) ]

(* One scaling cell: wall-clock per domain count, plus the dispatch
   overhead of the domains-aware entry point at domains = 1 versus the
   plain sequential call — both run the layer loop, so this isolates the
   cost of the parallel plumbing (expected ≈ 1.0; tracked as a regression
   guard on the engine dispatch). *)
let measure_subtree () =
  List.map
    (fun workload ->
      let name, depth, auto, sched = par_system workload in
      let run ~domains () = Measure.exec_dist ~memo:true ~domains auto sched ~depth in
      let times = List.map (fun domains -> (domains, wall (run ~domains))) par_domains in
      let t_plain = wall (fun () -> Measure.exec_dist ~memo:true auto sched ~depth) in
      let t1 = List.assoc 1 times in
      let speedup d = fixed 2 (t1 /. Float.max 1e-9 (List.assoc d times)) in
      ( name,
        Json.Obj
          [ ("depth", int depth);
            ("ms", Json.Obj (List.map (fun (d, t) -> (string_of_int d, fixed 4 t)) times));
            ("speedup_2", speedup 2); ("speedup_4", speedup 4);
            ("overhead_1", fixed 3 (t1 /. Float.max 1e-9 t_plain));
            ("trace", subtree_trace_json run) ] ))
    par_workloads

(* One compression cell: wall-clock per level at [depth], the quotient
   engine at [2 × depth], and the frontier geometry from two stats runs —
   [frontier_width_max] from the uncompressed engine ("frontier actually
   expanded", the historical meaning) and [frontier_width_compressed] /
   [quotient_classes] / [mass_merged] from the quotient engine. *)
let measure_compress () =
  List.map
    (fun (name, span, depth) ->
      let auto = Cdse_gen.Workloads.random_walk ~span "w" in
      let sched d = Scheduler.bounded d (Scheduler.uniform auto) in
      let run ~compress d () =
        Measure.exec_dist ~memo:true ~compress auto (sched d) ~depth:d
      in
      let depth_2x = 2 * depth in
      let ms_off = wall (run ~compress:`Off depth) in
      let ms_hcons = wall (run ~compress:`Hcons depth) in
      let ms_quotient = wall (run ~compress:`Quotient depth) in
      let ms_quotient_2x = wall (run ~compress:`Quotient depth_2x) in
      let snap_of f =
        let (), snap = Obs.with_stats (fun () -> ignore (Sys.opaque_identity (f ()))) in
        snap
      in
      let h_max snap key =
        match List.assoc_opt key snap.Obs.s_histograms with
        | Some h -> h.Obs.h_max
        | None -> 0
      in
      let off_snap = snap_of (run ~compress:`Off depth) in
      let q_snap = snap_of (run ~compress:`Quotient depth) in
      let width_max = h_max off_snap "measure.frontier.width" in
      let width_compressed = h_max q_snap "measure.frontier.width_compressed" in
      let classes =
        Option.value ~default:0 (List.assoc_opt "quotient.classes" q_snap.Obs.s_counters)
      in
      let mass_merged =
        Option.value ~default:"0"
          (List.assoc_opt "quotient.mass_merged" q_snap.Obs.s_gauges)
      in
      ( name,
        Json.Obj
          [ ("span", int span); ("depth", int depth); ("depth_2x", int depth_2x);
            ( "ms",
              Json.Obj
                [ ("off", fixed 4 ms_off); ("hcons", fixed 4 ms_hcons);
                  ("quotient", fixed 4 ms_quotient);
                  ("quotient_2x", fixed 4 ms_quotient_2x) ] );
            ("frontier_width_max", int width_max);
            ("frontier_width_compressed", int width_compressed);
            ("quotient_classes", int classes); ("mass_merged", Json.Str mass_merged) ] ))
    compress_workloads

let measure_compromise () =
  List.map
    (fun k ->
      let t0 = Unix.gettimeofday () in
      let votp = Experiments.e18_otp Impl.default_engine k in
      let vcmt = Experiments.e18_committee Impl.default_engine k in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      ( string_of_int k,
        Json.Obj
          [ ("otp_holds", Json.Bool votp.Impl.holds);
            ("otp_slack", Json.Str (Rat.to_string votp.Impl.worst));
            ("committee_holds", Json.Bool vcmt.Impl.holds);
            ("committee_slack", Json.Str (Rat.to_string vcmt.Impl.worst));
            ("ms", fixed 4 ms) ] ))
    compromise_budgets

(* Serving-layer cell (schema cdse-bench/8): an in-process [Serve] daemon
   on a temp socket, driven over the wire protocol by the testkit client.
   Honest 1-core numbers (domains = 1, workers = 2): cold wall-clock on a
   fresh cache line, warm round-trip on an exact cache hit — the ≥ 2×
   warm speedup is part of the recorded contract, enforced by check-json
   — plus an incremental-deepening resume, sustained synchronous
   queries/sec, and the daemon's own latency percentiles and cache hit
   rate from a final stats reply. The workload is picked so the server's
   cold cost (measure + rendering the megabyte-scale dist reply) clearly
   dominates what a warm hit still pays (the memoized render spliced raw,
   the wire transfer, and the client's own parse). *)
let serve_span = 4
let serve_depth = 8

let measure_serve () =
  let module Client = Cdse_testkit.Serve_client in
  let was_enabled = Obs.enabled () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cdse-bench-%d.sock" (Unix.getpid ()))
  in
  let server = Cdse_serve.Server.start ~domains:1 ~workers:2 ~socket () in
  let c = Client.connect socket in
  let measure_fields ~bound ~depth =
    [ ("op", Json.Str "measure");
      ("model",
       Json.Obj [ ("kind", Json.Str "random_walk"); ("span", int serve_span) ]);
      ("sched", Json.Obj [ ("kind", Json.Str "uniform"); ("bound", int bound) ]);
      ("depth", int depth) ]
  in
  let timed fields =
    let t0 = Unix.gettimeofday () in
    let r = Client.request c fields in
    let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
    if not r.Client.r_ok then
      failwith ("bench serve: query failed: " ^ Json.to_string r.Client.r_body);
    (ms, r.Client.r_body)
  in
  (* Cold: three fresh cache lines, averaged. Distinct scheduler bounds
     ≥ depth compute identical distributions but key distinct lines, so
     every request misses. *)
  let cold_ms =
    let bounds = [ serve_depth; serve_depth + 1; serve_depth + 2 ] in
    let ts =
      List.map (fun bound -> fst (timed (measure_fields ~bound ~depth:serve_depth))) bounds
    in
    List.fold_left ( +. ) 0.0 ts /. float_of_int (List.length ts)
  in
  (* Warm: exact repeats of the first line — every request is a cache hit. *)
  let warm_ms =
    let n = 50 in
    let t = ref 0.0 in
    for _ = 1 to n do
      t := !t +. fst (timed (measure_fields ~bound:serve_depth ~depth:serve_depth))
    done;
    !t /. float_of_int n
  in
  (* Incremental deepening: seed a fresh line at half depth, then ask for
     the full depth — the daemon resumes from the cached frontier instead
     of recomputing the prefix. *)
  let seed_depth = serve_depth / 2 in
  let fresh_bound = serve_depth + 10 in
  let _ = timed (measure_fields ~bound:fresh_bound ~depth:seed_depth) in
  let resume_ms, resume_body =
    timed (measure_fields ~bound:fresh_bound ~depth:serve_depth)
  in
  let resumed_from =
    match Option.bind (Json.member "resumed_from" resume_body) Json.to_int with
    | Some d -> d
    | None -> -1
  in
  (* Sustained synchronous throughput on the warm line. *)
  let qps =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.3 do
      ignore (timed (measure_fields ~bound:serve_depth ~depth:serve_depth));
      incr iters
    done;
    float_of_int !iters /. (Unix.gettimeofday () -. t0)
  in
  let stats = Client.stats c in
  let sfield path =
    List.fold_left
      (fun j k -> match Json.member k j with Some v -> v | None -> Json.Null)
      stats.Client.r_body path
  in
  let sint path = Option.value ~default:0 (Json.to_int (sfield path)) in
  let hits = sint [ "cache"; "hits" ] and misses = sint [ "cache"; "misses" ] in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let p50 = sint [ "latency_us"; "p50" ] and p99 = sint [ "latency_us"; "p99" ] in
  let queries = sint [ "queries" ] in
  ignore (Client.shutdown c);
  Cdse_serve.Server.wait server;
  Client.close c;
  Obs.set_enabled was_enabled;
  Json.Obj
    [ ("workload", Json.Str "random_walk"); ("span", int serve_span);
      ("depth", int serve_depth); ("domains", int 1); ("workers", int 2);
      ("cold_ms", fixed 4 cold_ms); ("warm_ms", fixed 4 warm_ms);
      ("warm_speedup", fixed 2 (cold_ms /. Float.max 1e-9 warm_ms));
      ("resumed_from", int resumed_from); ("resume_ms", fixed 4 resume_ms);
      ("qps", fixed 1 qps); ("p50_us", int p50); ("p99_us", int p99);
      ("cache_hit_rate", fixed 4 hit_rate); ("queries", int queries) ]

let emit micro_rows =
  (* The serve cell runs first: its round-trip timings are sensitive to
     major-GC pauses, so it should not inherit the heap the exec_dist
     sweeps churn up. *)
  let serve = measure_serve () in
  let macro = measure_macro () in
  let subtree = measure_subtree () in
  let compress = measure_compress () in
  let compromise = measure_compromise () in
  let units =
    [ ("micro", "ns/op"); ("exec_dist", "ms/op"); ("counters", "count per single run");
      ("exec_dist_subtree", "ms/op wall-clock, barrier-free subtree engine above 1 domain");
      ("trace", "dimensionless fractions from a traced run");
      ("exec_dist_compress", "ms/op wall-clock");
      ("compromise_sweep", "ms wall-clock, exact rational slacks");
      ("serve", "ms wall-clock round-trip over a Unix socket, in-process daemon") ]
  in
  let doc =
    lines
      [ ("schema", Json.Str "cdse-bench/9");
        ("generated_by", Json.Str "dune exec bench/main.exe -- micro");
        ("units", Json.Obj (List.map (fun (k, u) -> (k, Json.Str u)) units));
        ( "micro",
          lines ~indent:1
            (List.map
               (fun (name, current) -> (name, entry (List.assoc_opt name micro_baseline) current))
               micro_rows) );
        ("exec_dist", lines ~indent:1 macro);
        ("exec_dist_subtree", lines ~indent:1 subtree);
        ("exec_dist_compress", lines ~indent:1 compress);
        ("compromise_sweep", lines ~indent:1 compromise);
        ("serve", serve) ]
  in
  let oc = open_out "BENCH_cdse.json" in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  Printf.printf
    "Wrote BENCH_cdse.json (%d micro rows, %d exec_dist workloads x depths 3-6, %d subtree scaling cells, %d compression cells, %d compromise cells, 1 serve cell)\n%!"
    (List.length micro_rows) (List.length macro) (List.length subtree)
    (List.length compress) (List.length compromise)

(* ----------------------------------------------------- stable-key check *)

(* Read a file and parse it with the repo's JSON codec; an unreadable or
   unparseable file is reported and exits. *)
let read_json ~tool path =
  let contents =
    try
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error e ->
      Printf.eprintf "%s: %s\n" tool e;
      exit 1
  in
  match Json.parse contents with
  | Json.Obj fields -> fields
  | exception Json.Parse_error e ->
      Printf.eprintf "%s: %s: does not parse: %s\n" tool path e;
      exit 1
  | _ ->
      Printf.eprintf "%s: %s: top level is not an object\n" tool path;
      exit 1

(* Validate that BENCH_cdse.json parses and still carries the stable key
   set downstream tooling reads: the schema tag, every micro benchmark of
   the baseline, and every (workload, depth) exec_dist cell. Exits 1 with
   a diagnostic on any violation (the CI bench-smoke gate). *)
let check ?(path = "BENCH_cdse.json") () =
  let fields = read_json ~tool:"check-json" path in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "check-json: %s: %s\n" path m;
        exit 1)
      fmt
  in
  (match List.assoc_opt "schema" fields with
  | Some (Json.Str "cdse-bench/9") -> ()
  | Some (Json.Str other) -> fail "schema is %S, expected \"cdse-bench/9\"" other
  | _ -> fail "missing string key \"schema\"");
  List.iter
    (fun k -> if not (List.mem_assoc k fields) then fail "missing key %S" k)
    [ "generated_by"; "units" ];
  let objf k =
    match List.assoc_opt k fields with
    | Some (Json.Obj o) -> o
    | _ -> fail "missing object key %S" k
  in
  let check_entry ctx = function
    | Json.Obj e ->
        List.iter
          (fun k -> if not (List.mem_assoc k e) then fail "%s: missing field %S" ctx k)
          [ "baseline"; "current"; "speedup" ];
        (match List.assoc "current" e with
        | Json.Num _ -> ()
        | _ -> fail "%s: \"current\" is not a number" ctx)
    | _ -> fail "%s: not an object" ctx
  in
  (* The counters block: stable key set, numeric values, and an exact
     truncation deficit — the string must reparse as a rational in [0,1]
     via Rat.of_string. *)
  let check_counters ctx = function
    | Json.Obj c ->
        List.iter
          (fun k ->
            if not (List.mem_assoc k c) then fail "%s: counters missing key %S" ctx k)
          (counter_keys @ [ "memo_hit_rate"; "truncation_deficit" ]);
        List.iter
          (fun (k, v) ->
            match (k, v) with
            | "truncation_deficit", Json.Str s -> (
                match Rat.of_string s with
                | r ->
                    if not (Rat.is_proper_prob r) then
                      fail "%s: truncation_deficit %S is not in [0,1]" ctx s
                | exception _ ->
                    fail "%s: truncation_deficit %S is not an exact rational" ctx s)
            | "truncation_deficit", _ ->
                fail "%s: truncation_deficit is not a string" ctx
            | _, Json.Num _ -> ()
            | k, _ -> fail "%s: counter %S is not a number" ctx k)
          c
    | _ -> fail "%s: \"counters\" is not an object" ctx
  in
  let check_cell ctx e =
    check_entry ctx e;
    match e with
    | Json.Obj fields -> (
        match List.assoc_opt "counters" fields with
        | Some c -> check_counters ctx c
        | None -> fail "%s: missing field \"counters\"" ctx)
    | _ -> ()
  in
  let micro = objf "micro" in
  List.iter
    (fun (name, _) ->
      match List.assoc_opt name micro with
      | Some e -> check_entry ("micro." ^ name) e
      | None -> fail "micro: stable key %S missing" name)
    micro_baseline;
  let macro = objf "exec_dist" in
  List.iter
    (fun (name, base) ->
      match List.assoc_opt name macro with
      | Some (Json.Obj by_depth) ->
          List.iter
            (fun (d, _) ->
              let k = string_of_int d in
              match List.assoc_opt k by_depth with
              | Some e -> check_cell (Printf.sprintf "exec_dist.%s.%s" name k) e
              | None -> fail "exec_dist.%s: depth %s missing" name k)
            base
      | _ -> fail "exec_dist: stable workload %S missing" name)
    macro_baseline;
  (* Schema 7: per-domain wall-clock cells of the subtree engine. Each
     workload carries its depth, a "ms" object with one number per
     recorded domain count, and the derived 2-/4-domain speedups; the
     timing-attribution "trace" block carries the idle and steal
     fractions, which live in [0,1] by construction; the imbalance is a
     max-over-mean, ≥ 1 up to float rendering. *)
  let subtree_block = objf "exec_dist_subtree" in
  List.iter
    (fun (name, _, _) ->
      let ctx = "exec_dist_subtree." ^ name in
      match List.assoc_opt name subtree_block with
      | Some (Json.Obj cell) ->
          (match List.assoc_opt "depth" cell with
          | Some (Json.Num _) -> ()
          | _ -> fail "%s: missing numeric field \"depth\"" ctx);
          (match List.assoc_opt "ms" cell with
          | Some (Json.Obj ms) ->
              List.iter
                (fun d ->
                  match List.assoc_opt (string_of_int d) ms with
                  | Some (Json.Num t) when t > 0.0 -> ()
                  | Some (Json.Num _) -> fail "%s: ms[%d] is not positive" ctx d
                  | _ -> fail "%s: ms missing domain count %d" ctx d)
                par_domains
          | _ -> fail "%s: missing object field \"ms\"" ctx);
          List.iter
            (fun k ->
              match List.assoc_opt k cell with
              | Some (Json.Num _) -> ()
              | _ -> fail "%s: missing numeric field %S" ctx k)
            [ "speedup_2"; "speedup_4"; "overhead_1" ];
          (match List.assoc_opt "trace" cell with
          | Some (Json.Obj tr) ->
              let tnum k =
                match List.assoc_opt k tr with
                | Some (Json.Num v) -> v
                | _ -> fail "%s: trace missing numeric field %S" ctx k
              in
              if tnum "domains" < 1.0 then fail "%s: trace.domains < 1" ctx;
              List.iter
                (fun k ->
                  let v = tnum k in
                  if v < 0.0 || v > 1.0 then
                    fail "%s: trace.%s %.4f is not in [0,1]" ctx k v)
                [ "idle_frac"; "steal_frac" ];
              if tnum "imbalance_max_over_mean" < 0.999 then
                fail "%s: trace.imbalance_max_over_mean %.4f < 1" ctx
                  (tnum "imbalance_max_over_mean")
          | _ -> fail "%s: missing object field \"trace\"" ctx)
      | _ -> fail "exec_dist_subtree: stable workload %S missing" name)
    par_workloads;
  (* Schema 4: state-space-compression cells. Structural validation plus
     the one timing-independent invariant — the quotient frontier can
     never be wider than the uncompressed one. *)
  let compress_block = objf "exec_dist_compress" in
  List.iter
    (fun (name, _, _) ->
      let ctx = "exec_dist_compress." ^ name in
      match List.assoc_opt name compress_block with
      | Some (Json.Obj cell) ->
          let num k =
            match List.assoc_opt k cell with
            | Some (Json.Num v) -> v
            | _ -> fail "%s: missing numeric field %S" ctx k
          in
          List.iter (fun k -> ignore (num k))
            [ "span"; "depth"; "depth_2x"; "quotient_classes" ];
          if num "depth_2x" < 2.0 *. num "depth" then
            fail "%s: depth_2x < 2 x depth" ctx;
          (match List.assoc_opt "ms" cell with
          | Some (Json.Obj ms) ->
              List.iter
                (fun level ->
                  match List.assoc_opt level ms with
                  | Some (Json.Num t) when t > 0.0 -> ()
                  | Some (Json.Num _) -> fail "%s: ms.%s is not positive" ctx level
                  | _ -> fail "%s: ms missing level %S" ctx level)
                [ "off"; "hcons"; "quotient"; "quotient_2x" ]
          | _ -> fail "%s: missing object field \"ms\"" ctx);
          let wmax = num "frontier_width_max" in
          let wc = num "frontier_width_compressed" in
          if wc > wmax then
            fail "%s: frontier_width_compressed %.0f > frontier_width_max %.0f" ctx wc
              wmax;
          (match List.assoc_opt "mass_merged" cell with
          | Some (Json.Str s) -> (
              (* Accumulated across layers, so it may exceed 1 — only
                 nonnegativity and exactness are invariant. *)
              match Rat.of_string s with
              | r -> if Rat.sign r < 0 then fail "%s: mass_merged %S is negative" ctx s
              | exception _ -> fail "%s: mass_merged %S is not an exact rational" ctx s)
          | _ -> fail "%s: missing string field \"mass_merged\"" ctx)
      | _ -> fail "exec_dist_compress: stable workload %S missing" name)
    compress_workloads;
  (* Schema 5: compromise-sweep cells. The recorded slacks are part of the
     contract: exact rationals in [0,1], non-decreasing in the budget, and
     the holds bits flip exactly at each system's tolerance threshold
     (OTP: 0 takeovers tolerated; 2-of-3 committee: 1). *)
  let compromise_block = objf "compromise_sweep" in
  let slack_at k field =
    let ctx = Printf.sprintf "compromise_sweep.%d" k in
    match List.assoc_opt (string_of_int k) compromise_block with
    | Some (Json.Obj cell) -> (
        (match List.assoc_opt "ms" cell with
        | Some (Json.Num t) when t > 0.0 -> ()
        | _ -> fail "%s: missing positive numeric field \"ms\"" ctx);
        match List.assoc_opt field cell with
        | Some (Json.Str s) -> (
            match Rat.of_string s with
            | r ->
                if not (Rat.is_proper_prob r) then
                  fail "%s: %s %S is not in [0,1]" ctx field s
                else r
            | exception _ -> fail "%s: %s %S is not an exact rational" ctx field s)
        | _ -> fail "%s: missing string field %S" ctx field)
    | _ -> fail "compromise_sweep: budget %d missing" k
  in
  let holds_at k field =
    match List.assoc_opt (string_of_int k) compromise_block with
    | Some (Json.Obj cell) -> (
        match List.assoc_opt field cell with
        | Some (Json.Bool b) -> b
        | _ -> fail "compromise_sweep.%d: missing boolean field %S" k field)
    | _ -> fail "compromise_sweep: budget %d missing" k
  in
  List.iter
    (fun field ->
      ignore
        (List.fold_left
           (fun prev k ->
             let s = slack_at k field in
             if Rat.compare s prev < 0 then
               fail "compromise_sweep: %s decreases at budget %d" field k;
             s)
           Rat.zero compromise_budgets))
    [ "otp_slack"; "committee_slack" ];
  List.iter
    (fun k ->
      if holds_at k "otp_holds" <> (k = 0) then
        fail "compromise_sweep.%d: otp_holds should flip at the 0-takeover threshold" k;
      if holds_at k "committee_holds" <> (k <= 1) then
        fail "compromise_sweep.%d: committee_holds should flip at the 1-takeover threshold" k)
    compromise_budgets;
  (* Schema 8: the serving-layer cell. The warm-cache speedup is part of
     the recorded contract — an exact cache hit must answer at least 2×
     faster than computing the distribution cold — and the resume depth
     must be a proper prefix of the full query depth. *)
  let serve_cell = objf "serve" in
  let snum k =
    match List.assoc_opt k serve_cell with
    | Some (Json.Num v) -> v
    | _ -> fail "serve: missing numeric field %S" k
  in
  (match List.assoc_opt "workload" serve_cell with
  | Some (Json.Str _) -> ()
  | _ -> fail "serve: missing string field \"workload\"");
  List.iter
    (fun k -> if snum k <= 0.0 then fail "serve: %S is not positive" k)
    [ "span"; "depth"; "domains"; "workers"; "cold_ms"; "warm_ms"; "resume_ms";
      "qps"; "queries" ];
  if snum "warm_speedup" < 2.0 then
    fail "serve: warm_speedup %.2f < 2 — the cache hit is not paying for itself"
      (snum "warm_speedup");
  let hr = snum "cache_hit_rate" in
  if hr < 0.0 || hr > 1.0 then fail "serve: cache_hit_rate %.4f is not in [0,1]" hr;
  if snum "p50_us" > snum "p99_us" then fail "serve: p50_us exceeds p99_us";
  let rf = snum "resumed_from" in
  if rf < 1.0 || rf >= snum "depth" then
    fail "serve: resumed_from %.0f is not a proper prefix of depth %.0f" rf
      (snum "depth");
  Printf.printf
    "check-json: %s OK (schema cdse-bench/9, %d micro keys, %d workloads x %d depths, %d subtree scaling cells with trace blocks, %d compression cells, %d compromise cells, 1 serve cell, counters validated)\n"
    path (List.length micro_baseline) (List.length macro_baseline) (List.length depths)
    (List.length par_workloads) (List.length compress_workloads)
    (List.length compromise_budgets)

(* ------------------------------------------------------ trace-file check *)

(* Validate an emitted Chrome trace-event file (the --trace output): a
   top-level object with a "traceEvents" array of complete spans ("X"),
   instants ("i") and thread-name metadata ("M") — never unbalanced
   begin/end ("B"/"E") pairs — with numeric coordinates, nonnegative
   durations, and at least one engine work span (a layer-loop
   [measure.layer] or a subtree-engine [measure.subtree]/[measure.seed],
   whichever engine produced the trace). The CI trace-smoke gate. *)
let check_trace path =
  let fields = read_json ~tool:"check-trace" path in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "check-trace: %s: %s\n" path m;
        exit 1)
      fmt
  in
  let events =
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.List evs) -> evs
    | _ -> fail "missing array key \"traceEvents\""
  in
  let spans = ref 0 and layers = ref 0 and subtrees = ref 0 in
  List.iteri
    (fun i ev ->
      let ctx = Printf.sprintf "traceEvents[%d]" i in
      match ev with
      | Json.Obj e ->
          let str k =
            match List.assoc_opt k e with
            | Some (Json.Str s) -> s
            | _ -> fail "%s: missing string field %S" ctx k
          in
          let num k =
            match List.assoc_opt k e with
            | Some (Json.Num v) -> v
            | _ -> fail "%s: missing numeric field %S" ctx k
          in
          let name = str "name" in
          (match str "ph" with
          | "M" -> ()
          | "X" ->
              incr spans;
              if String.equal name "measure.layer" then incr layers;
              if String.equal name "measure.subtree" || String.equal name "measure.seed"
              then incr subtrees;
              ignore (num "ts");
              ignore (num "pid");
              ignore (num "tid");
              if num "dur" < 0.0 then fail "%s: negative dur" ctx
          | "i" ->
              ignore (num "ts");
              ignore (num "tid")
          | ("B" | "E") as ph ->
              fail "%s: unbalanced phase %S (exporter emits complete spans only)" ctx ph
          | ph -> fail "%s: unexpected phase %S" ctx ph)
      | _ -> fail "%s: not an object" ctx)
    events;
  if !spans = 0 then fail "no complete spans";
  if !layers = 0 && !subtrees = 0 then
    fail "no engine work spans (neither measure.layer nor measure.subtree/seed)";
  Printf.printf
    "check-trace: %s OK (%d events, %d spans, %d layer + %d subtree spans)\n" path
    (List.length events) !spans !layers !subtrees
