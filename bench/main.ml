(* Benchmark & experiment harness.

     dune exec bench/main.exe               — run every experiment + micro suite
     dune exec bench/main.exe -- E3 E6      — run selected experiments
     dune exec bench/main.exe -- micro      — micro-benchmarks only
     dune exec bench/main.exe -- check-json — validate BENCH_cdse.json keys
     dune exec bench/main.exe -- check-trace FILE
                                            — validate a Chrome trace-event file
     dune exec bench/main.exe -- serve-smoke
                                            — daemon wire-protocol smoke gate

   Add --stats to any run to collect engine observability counters
   (lib/obs) and print a report at the end. Note that regenerating
   BENCH_cdse.json ("micro") resets the counters per exec_dist cell while
   gathering its counters block, so the final report then covers the runs
   since the last cell.

   Each experiment regenerates one table of EXPERIMENTS.md; checks on the
   theorem-predicted shapes are enforced (non-zero exit on violation). *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let stats = List.mem "--stats" args in
  let args = List.filter (fun a -> not (String.equal a "--stats")) args in
  (* --compromise K: clamp the E18 compromise-budget sweep to the single
     budget K (default: sweep k = 0..3).
     --trace FILE: record a span trace of the experiment runs and write
     Chrome trace-event JSON to FILE (plus a text summary to stdout). *)
  let rec extract_flags acc = function
    | "--trace" :: file :: rest ->
        Workbench.trace_file := Some file;
        extract_flags acc rest
    | "--compromise" :: n :: rest ->
        Workbench.compromise := Some (max 0 (int_of_string n));
        extract_flags acc rest
    | a :: rest -> extract_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_flags [] args in
  match args with
  | "check-json" :: _ -> Bench_json.check ()
  | "serve-smoke" :: _ -> Serve_smoke.run ()
  | "check-trace" :: file :: _ -> Bench_json.check_trace file
  | [ "check-trace" ] ->
      prerr_endline "check-trace: expected a trace file argument";
      exit 2
  | args ->
      let run_micro = args = [] || List.mem "micro" args in
      let selected name = args = [] || List.mem name args in
      if stats then Cdse.Obs.set_enabled true;
      (match !Workbench.trace_file with
      | Some _ -> Cdse.Trace.start ()
      | None -> ());
      print_endline "cdse experiment harness — composable dynamic secure emulation";
      print_endline "(paper: brief announcement, no tables/figures; experiments per DESIGN.md §5)";
      List.iter (fun (name, f) -> if selected name then f ()) Experiments.all;
      (* The --trace session covers the experiments only: it must be
         written out before the micro suite runs, because regenerating
         BENCH_cdse.json starts and clears its own short trace sessions
         for the per-cell timing-attribution blocks. *)
      (match !Workbench.trace_file with
      | Some file ->
          Cdse.Trace.stop ();
          Cdse.Trace.write_chrome file;
          Format.printf "@.-- trace (--trace) --@.%a@.wrote %s@." Cdse.Trace.pp_summary
            (Cdse.Trace.summary ()) file;
          Cdse.Trace.clear ()
      | None -> ());
      if run_micro then Bench_json.emit (Micro.run ());
      Workbench.summary ();
      if stats then
        Format.printf "@.-- stats (--stats) --@.%a@." Cdse.Obs.report (Cdse.Obs.snapshot ())
