(* The repository benchmark. Run from the root of a checkout, through
   run.py (which builds this and bin/cdse_serve.exe first):

     python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--trace-file FILE]
     python3 perfbench/run.py diff OLD_DIR NEW_DIR
     python3 perfbench/run.py selftest

   A run prints a summary, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones of
   the traced replay (replay.ml). README.md describes every metric. *)

module Json = Cdse_serve.Json

let end_to_end =
  [ ("ops_per_cpu_s", "ops/s"); ("cpu_p50_ms", "ms"); ("cpu_p90_ms", "ms"); ("setup_s", "s");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("protocol.parse_us", "us"); ("engine.model_us", "us"); ("engine.model_hit_ratio", "ratio");
    ("engine.measure_miss_us", "us"); ("engine.measure_hit_us", "us"); ("engine.reach_us", "us");
    ("engine.resume_saving_frac", "fraction"); ("measure.execs_p50", "count");
    ("measure.memo_hit_ratio", "ratio"); ("codec.dist_to_json_us", "us");
    ("json.to_string_us", "us"); ("codec.render_ns_per_byte", "ns/byte");
    ("codec.reply_bytes_p50", "bytes"); ("value.to_bits_frac", "fraction");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count"); ("cache.resume_ratio", "ratio");
    ("server.latency_p50_us", "us"); ("server.wire_overhead_us", "us");
    ("structured.aact_universe_ms", "ms"); ("emulation.hide_compose_ms", "ms");
    ("schema.bounded_instantiate_ms", "ms"); ("insight.apply_real_ms", "ms");
    ("insight.apply_ideal_ms", "ms"); ("insight.apply_calls", "count");
    ("stat.sup_set_distance_ms", "ms"); ("verdict.setup_frac", "fraction");
    ("replay.coverage_frac", "fraction"); ("replay.trace_overhead_frac", "fraction");
    ("replay.vs_daemon_ratio", "ratio"); ("trace.dropped", "count") ]

let workloads = [ "serve_cold"; "serve_warm"; "serve_reach"; "verdict_e18" ]

let serve_config name ~seed =
  match name with
  | "serve_cold" -> Some (Timed.serve_cold ~seed)
  | "serve_warm" -> Some (Timed.serve_warm ~seed)
  | "serve_reach" -> Some (Timed.serve_reach ~seed)
  | _ -> None

(* Operations replayed by a traced run of [seconds], sized so the real
   path, four replay passes and the probes take about half the run. *)
let prefix name ~seconds =
  let per_second =
    match name with
    | "serve_cold" -> 8.0
    | "serve_warm" -> 400.0
    | "serve_reach" -> 20.0
    | _ -> 0.5
  in
  max 2 (int_of_float (per_second *. seconds))

let trace_path name = Filename.concat Wire.out_dir (name ^ ".trace.json")

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  measured : string list;  (** metrics the workload exercises *)
}

let timed name ~seed ~seconds ~corrupt =
  let o =
    match serve_config name ~seed with
    | Some cfg -> Timed.run_serve cfg ~seconds ~corrupt
    | None -> Timed.run_verdict ~seed ~seconds ~corrupt
  in
  (* Each operation's median CPU seconds at nominal speed; the rate is
     the set's operations per CPU second. *)
  let per_op = List.map Stats.median (Array.to_list o.Timed.scaled) in
  let per_op_ms = List.map (fun s -> s *. 1000.0) per_op in
  let values =
    [ ("ops_per_cpu_s", float_of_int (List.length per_op) /. List.fold_left ( +. ) 0.0 per_op);
      ("cpu_p50_ms", Stats.median per_op_ms);
      ("cpu_p90_ms", Stats.percentile per_op_ms 0.9);
      ("setup_s", Stats.median o.Timed.setups);
      ("peak_rss_mb", o.Timed.rss_mb) ]
  in
  let raw_ms f = Stats.median (List.map (fun l -> f l *. 1000.0) (Array.to_list o.Timed.raw)) in
  Printf.printf "%s seed %d: %d operations (a set of %d, %d rounds), %d failed; %d set-ups\n" name
    seed o.Timed.attempted (List.length per_op) o.Timed.rounds o.Timed.failed
    (List.length o.Timed.setups);
  Printf.printf
    "host at %.2fx nominal CPU time (median of %d speed references); unscaled p50 of \
     per-operation medians %.4g ms, of per-operation bests %.4g ms\n"
    (Stats.median o.Timed.references /. Speed.nominal)
    (List.length o.Timed.references) (raw_ms Stats.median)
    (raw_ms (List.fold_left Float.min Float.infinity));
  {
    correct = o.Timed.failed = 0;
    attempted = o.Timed.attempted;
    failed = o.Timed.failed;
    metrics = List.map (fun (n, u) -> (n, List.assoc n values, u)) end_to_end;
    measured = List.map fst end_to_end;
  }

let traced name ~seed ~seconds ~trace_file =
  let n = prefix name ~seconds in
  let layers, failed =
    match serve_config name ~seed with
    | Some cfg -> Replay.serve cfg ~prefix:n ~trace_file
    | None -> Replay.verdict ~seed ~prefix:n ~trace_file
  in
  let value m = Option.value ~default:0.0 (Hashtbl.find_opt layers m) in
  let coverage = value "replay.coverage_frac" and dropped = value "trace.dropped" in
  Printf.printf "%s seed %d: traced replay of %d operations, %d wrong; trace in %s\n" name seed n
    failed trace_file;
  if coverage < 0.9 then Printf.printf "replay.coverage_frac %.3f is below 0.9\n" coverage;
  if dropped > 0.0 then Printf.printf "the trace dropped %.0f events\n" dropped;
  {
    correct = failed = 0 && coverage >= 0.9 && dropped = 0.0;
    attempted = n;
    failed;
    metrics = List.map (fun (m, u) -> (m, value m, u)) per_layer;
    measured = Hashtbl.fold (fun k _ acc -> k :: acc) layers [];
  }

let run name ~seed ~seconds ~trace ~trace_file ~corrupt =
  if trace then traced name ~seed ~seconds ~trace_file
  else timed name ~seed ~seconds ~corrupt

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             r.metrics) ) ]

let print_result r =
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %.6g %s\n" n v u) r.metrics;
  match List.find_opt (fun (_, v, _) -> not (Float.is_finite v)) r.metrics with
  | Some (n, _, _) ->
      Printf.eprintf "perfbench: metric %s is not a number\n" n;
      exit 3
  | None -> print_endline (Json.to_string (result_json r))

(* ------------------------------------------------------ BENCHMARK.json *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let str_field k j = match Json.member k j with Some (Json.Str s) -> s | _ -> ""
let num_field k j = match Json.member k j with Some (Json.Num f) -> f | _ -> Float.nan

(* (name, unit, better, bound) of each metric class in BENCHMARK.json. *)
let declared cls =
  match Json.member cls (Json.parse (read_file "BENCHMARK.json")) with
  | Some (Json.List ms) ->
      List.map
        (fun m -> (str_field "name" m, str_field "unit" m, str_field "better" m, num_field "bound" m))
        ms
  | _ -> failwith ("BENCHMARK.json has no list " ^ cls)

(* ---------------------------------------------------------------- diff *)

(* A set of runs is a directory of files named <workload>.<anything>,
   each holding a run's standard output (the last line is the result). *)
let load_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         let path = Filename.concat dir f in
         match String.index_opt f '.' with
         | Some i when not (Sys.is_directory path) ->
             let lines =
               String.split_on_char '\n' (read_file path)
               |> List.filter (fun l -> String.trim l <> "")
             in
             if lines = [] then None
             else Some (String.sub f 0 i, Json.parse (List.nth lines (List.length lines - 1)))
         | _ -> None)

let metric_values runs w m =
  List.filter_map
    (fun (w', j) ->
      if w' <> w then None
      else
        match Json.member "metrics" j with
        | Some ms -> Option.map (num_field "value") (Json.member m ms)
        | None -> None)
    runs

let failure_ratio runs w =
  let sum k =
    List.fold_left (fun acc (w', j) -> if w' = w then acc +. num_field k j else acc) 0.0 runs
  in
  Stats.ratio (sum "failed") (sum "attempted")

let classify ~better ~bound old_v new_v =
  let med = Stats.median in
  let sign = if better = "lower" then -1.0 else 1.0 in
  let gain = sign *. (med new_v -. med old_v) /. med old_v in
  let spread xs =
    let q1, m, q3 = Stats.quartiles xs in
    Float.abs ((q3 -. q1) /. m)
  in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> sign *. (n -. o) > 0.0) old_v) new_v
  in
  let all_worse =
    List.for_all (fun n -> List.for_all (fun o -> sign *. (n -. o) < 0.0) old_v) new_v
  in
  if List.length old_v < 2 || List.length new_v < 2 then "unresolved"
  else if gain > bound && all_better then "better"
  else if gain < -.bound && all_worse then "worse"
  else if Float.max (spread old_v) (spread new_v) > bound then "unresolved"
  else if gain < -.bound then "worse"
  else if gain > bound && gain > spread old_v then "better"
  else "unchanged"

let diff old_dir new_dir =
  let olds = load_runs old_dir and news = load_runs new_dir in
  let bounded = declared "end_to_end" in
  let workloads =
    List.sort_uniq compare (List.map fst olds)
    |> List.filter (fun w -> List.mem_assoc w news)
  in
  let regressions = ref 0 in
  let quart xs =
    if List.length xs < 2 then Printf.sprintf "%.6g" (Stats.median xs)
    else
      let q1, m, q3 = Stats.quartiles xs in
      Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  Printf.printf "%-12s %-30s %-36s %-36s %8s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      let fo = failure_ratio olds w and fn = failure_ratio news w in
      let incorrect =
        List.exists (fun (w', j) -> w' = w && Json.member "correct" j <> Some (Json.Bool true)) news
      in
      let fverdict = if fn > fo || incorrect then "worse" else "unchanged" in
      if fverdict = "worse" then incr regressions;
      Printf.printf "%-12s %-30s %-36.6g %-36.6g %8s  %s\n" w "failure_ratio" fo fn "" fverdict;
      let names =
        List.concat_map
          (fun (w', j) ->
            match Json.member "metrics" j with
            | Some (Json.Obj ms) when w' = w -> List.map fst ms
            | _ -> [])
          olds
        |> List.sort_uniq compare
      in
      List.iter
        (fun m ->
          let o = metric_values olds w m and n = metric_values news w m in
          if o <> [] && n <> [] then begin
            let change =
              if Stats.median o = 0.0 then "-"
              else Printf.sprintf "%.2f%%" ((Stats.median n -. Stats.median o) /. Stats.median o *. 100.0)
            in
            let verdict =
              match List.find_opt (fun (name, _, _, _) -> name = m) bounded with
              | Some (_, _, better, bound) -> classify ~better ~bound o n
              | None -> "(no bound)"
            in
            if verdict = "worse" then incr regressions;
            Printf.printf "%-12s %-30s %-36s %-36s %8s  %s\n" w m (quart o) (quart n) change
              verdict
          end)
        names)
    workloads;
  if workloads = [] then (prerr_endline "perfbench diff: no workload in both sets"; exit 2);
  if !regressions > 0 then begin
    Printf.printf "%d regression(s)\n" !regressions;
    exit 1
  end

(* ------------------------------------------------------------ selftest *)

(* Runs every workload briefly, traced and untraced, and checks that the
   emitted metrics are the ones BENCHMARK.json declares, that this commit
   passes its own checks, and that a planted wrong expectation fails. *)
let selftest () =
  let seconds = 2.0 and seed = 1 in
  let problems = ref [] in
  let expect ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt in
  let names_of r = List.map (fun (n, _, u) -> (n, u)) r.metrics in
  let declared_names cls = List.map (fun (n, u, _, _) -> (n, u)) (declared cls) in
  let measured = ref [] in
  List.iter
    (fun w ->
      let trace_file = trace_path w in
      let plain = run w ~seed ~seconds ~trace:false ~trace_file ~corrupt:false in
      expect (names_of plain = declared_names "end_to_end") "%s: end-to-end metrics differ from BENCHMARK.json" w;
      expect (plain.correct && plain.failed = 0) "%s: failed its own checks" w;
      let tr = run w ~seed ~seconds ~trace:true ~trace_file ~corrupt:false in
      expect (names_of tr = declared_names "per_layer") "%s: per-layer metrics differ from BENCHMARK.json" w;
      expect tr.correct "%s: the traced replay failed its checks" w;
      measured := tr.measured @ !measured;
      let bad = run w ~seed ~seconds ~trace:false ~trace_file ~corrupt:true in
      expect
        (bad.failed > 0 && not bad.correct)
        "%s: a corrupted expectation still reads failure_ratio = 0" w)
    workloads;
  List.iter
    (fun (m, _) -> expect (List.mem m !measured) "per-layer metric %s is measured by no workload" m)
    per_layer;
  match !problems with
  | [] -> print_endline "selftest: all checks passed"
  | ps ->
      List.iter (fun p -> print_endline ("selftest: FAIL: " ^ p)) (List.rev ps);
      exit 1

(* ----------------------------------------------------------------- CLI *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-file FILE]\n\
    \       main.exe diff OLD_DIR NEW_DIR\n\
    \       main.exe selftest";
  exit 2

let () =
  (* Exiting through [exit] runs Wire's handler that stops the daemons. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  match List.tl (Array.to_list Sys.argv) with
  | [ "diff"; old_dir; new_dir ] -> diff old_dir new_dir
  | [ "selftest" ] -> selftest ()
  | args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
      let name = get "workload" in
      if not (List.mem name workloads) then begin
        Printf.eprintf "unknown workload %S (expected %s)\n" name (String.concat " | " workloads);
        exit 2
      end;
      let seed = int "seed" and seconds = float_of_int (int "seconds") in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      if seconds <= 0.0 then usage ();
      Wire.ensure_out_dir ();
      let trace_file =
        match List.assoc_opt "trace-file" opts with
        | Some f -> f
        | None -> trace_path name
      in
      print_result (run name ~seed ~seconds ~trace ~trace_file ~corrupt:false)
