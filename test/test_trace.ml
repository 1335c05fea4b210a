(* Tests for the span tracer (lib/obs/trace): the free-when-disabled
   guarantee (no events, no clock reads, bit-identical engine results),
   span balance (every recorded span is complete, even across raises),
   capacity accounting, the Chrome exporter's invariants and the
   self-profiling summary. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
module Obs = Cdse_obs.Obs
module Trace = Cdse_obs.Trace
module Json = Cdse_util.Json

(* A conformance-corpus case ("42 0 0 5" in test/corpus/seeds.txt): a
   random 6-state PSIOA under a bounded uniform scheduler. *)
let corpus_system () =
  let rng = Rng.make 42 in
  let auto = Cdse_gen.Random_auto.make ~rng ~name:"ca" ~n_states:6 ~n_actions:3 () in
  (auto, Scheduler.bounded 5 (Scheduler.uniform auto), 5)

let items_identical d1 d2 =
  let i1 = Dist.items d1 and i2 = Dist.items d2 in
  List.length i1 = List.length i2
  && List.for_all2
       (fun (e, p) (e', p') -> Exec.compare e e' = 0 && Rat.equal p p')
       i1 i2

(* With tracing disabled every recording form is a no-op: thunks are
   never forced, tokens are inert, nothing reaches the store. *)
let test_disabled_emits_nothing () =
  Trace.clear ();
  Alcotest.(check bool) "tracing starts disabled" false (Trace.enabled ());
  let forced = ref 0 in
  let v =
    Trace.span "t.span"
      ~args:(fun () ->
        incr forced;
        [])
      (fun () -> 17)
  in
  Alcotest.(check int) "span is transparent" 17 v;
  let tok = Trace.begin_span "t.open" in
  Trace.end_span
    ~args:(fun () ->
      incr forced;
      [])
    tok;
  Trace.instant
    ~args:(fun () ->
      incr forced;
      [])
    "t.instant";
  Alcotest.(check int) "argument thunks never forced while disabled" 0 !forced;
  Alcotest.(check (list string)) "no events recorded" []
    (List.map (fun e -> e.Trace.ev_name) (Trace.events ()));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ())

(* Disabled tracing perturbs nothing: the engine's result with the
   tracer off is bit-identical to a traced run of the same corpus case,
   plain and quotient-compressed. *)
let test_disabled_bit_identical () =
  let auto, sched, depth = corpus_system () in
  Trace.clear ();
  let plain = Measure.exec_dist auto sched ~depth in
  let quot = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
  Trace.start ();
  let plain_t = Measure.exec_dist auto sched ~depth in
  let quot_t = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
  Trace.stop ();
  Alcotest.(check bool) "a traced run recorded spans" true
    (Trace.events () <> []);
  Trace.clear ();
  Alcotest.(check bool) "traced run bit-identical" true
    (items_identical plain plain_t);
  Alcotest.(check bool) "traced quotient run bit-identical" true
    (items_identical quot quot_t)

(* Spans are balanced: every event in the store is complete (non-negative
   duration, no dangling opens — the parsed export holds only "X"/"i"/"M"
   phases), and a span body that raises still records its span. *)
let test_spans_balanced () =
  Trace.start ();
  (try Trace.span "t.raises" (fun () -> failwith "boom") with Failure _ -> ());
  let auto, sched, depth = corpus_system () in
  ignore (Measure.exec_dist auto sched ~depth);
  Trace.stop ();
  let evs = Trace.events () in
  Alcotest.(check bool) "raising span still recorded" true
    (List.exists (fun e -> e.Trace.ev_name = "t.raises") evs);
  Alcotest.(check bool) "every event has a non-negative duration" true
    (List.for_all (fun e -> e.Trace.ev_dur >= 0.) evs);
  Alcotest.(check bool) "instants have zero duration" true
    (List.for_all
       (fun e -> (not e.Trace.ev_instant) || e.Trace.ev_dur = 0.)
       evs);
  let chrome = Trace.to_chrome () in
  Trace.clear ();
  let events =
    match Json.member "traceEvents" (Json.parse chrome) with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "chrome export has no traceEvents array"
  in
  let str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> "" in
  let phases = List.map (str "ph") events in
  Alcotest.(check bool) "chrome export names the timeline" true
    (List.exists (fun e -> str "name" e = "thread_name") events);
  Alcotest.(check bool) "chrome export has complete spans" true (List.mem "X" phases);
  Alcotest.(check (list string)) "only complete spans, instants and metadata" []
    (List.filter (fun ph -> not (List.mem ph [ "X"; "i"; "M" ])) phases)

(* Ring capacity: a full store drops (never blocks, never reallocates)
   and counts every drop. *)
let test_capacity_and_dropped () =
  Trace.start ~capacity:16 ();
  for i = 1 to 100 do
    Trace.instant ~args:(fun () -> [ ("i", string_of_int i) ]) "t.flood"
  done;
  Trace.stop ();
  let kept = List.length (Trace.events ()) in
  Alcotest.(check int) "store capped at capacity" 16 kept;
  Alcotest.(check int) "every overflow counted" 84 (Trace.dropped ());
  Trace.clear ();
  Alcotest.(check int) "clear resets the dropped count" 0 (Trace.dropped ())

(* The self-profiling summary over a run of the corpus system: spans are
   counted, the layer vocabulary was recognized, each row carries its
   frontier width, and a layer's expansion share is a fraction of it (the
   expand span nests inside the layer span). *)
let test_summary_sane () =
  let auto, sched, depth = corpus_system () in
  Trace.start ();
  ignore (Measure.exec_dist auto sched ~depth);
  Trace.stop ();
  let sm = Trace.summary () in
  Trace.clear ();
  Alcotest.(check bool) "spans counted" true (sm.Trace.sm_spans > 0);
  Alcotest.(check bool) "layer rows parsed" true (sm.Trace.sm_layers <> []);
  Alcotest.(check bool) "layer rows carry the frontier width" true
    (List.for_all (fun lr -> lr.Trace.lr_width > 0) sm.Trace.sm_layers);
  Alcotest.(check bool) "expand time fits inside its layer" true
    (List.for_all
       (fun lr -> lr.Trace.lr_expand_us >= 0. && lr.Trace.lr_expand_us <= lr.Trace.lr_total_us)
       sm.Trace.sm_layers)

(* Regression (probe isolation): the per-layer stats deltas of a run must
   be computed against a run-start baseline of the process-global Obs
   counters, not against zero. Before the fix, the first
   measure.layer.stats instant of every run after the first reported the
   whole process history, so two engine runs in one process corrupted each
   other's deltas. Two identical back-to-back runs (fresh caches each)
   must report identical per-layer deltas. *)
let test_probe_isolation () =
  let auto, sched, depth = corpus_system () in
  Obs.set_enabled true;
  let stats_of () =
    ignore (Measure.exec_dist auto sched ~depth);
    let st =
      List.filter_map
        (fun e ->
          if e.Trace.ev_name = "measure.layer.stats" then Some e.Trace.ev_args
          else None)
        (Trace.events ())
    in
    Trace.clear ();
    st
  in
  Trace.start ();
  let run1 = stats_of () in
  let run2 = stats_of () in
  Trace.stop ();
  Trace.clear ();
  Obs.set_enabled false;
  Alcotest.(check bool) "stats instants recorded" true (run1 <> []);
  Alcotest.(check bool) "second run reports the same per-layer deltas" true
    (run1 = run2)

let () =
  Alcotest.run "cdse_trace"
    [
      ( "disabled",
        [
          Alcotest.test_case "disabled mode emits nothing" `Quick
            test_disabled_emits_nothing;
          Alcotest.test_case "disabled mode is bit-identical" `Quick
            test_disabled_bit_identical;
        ] );
      ( "recording",
        [
          Alcotest.test_case "spans always balanced" `Quick test_spans_balanced;
          Alcotest.test_case "capacity bound and dropped count" `Quick
            test_capacity_and_dropped;
        ] );
      ( "summary",
        [
          Alcotest.test_case "attribution fractions sane" `Quick test_summary_sane;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "layer-stats probe isolated per run" `Quick
            test_probe_isolation;
        ] );
    ]
