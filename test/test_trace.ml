(* Tests for the span tracer (lib/obs/trace): the free-when-disabled
   guarantee (no events, no clock reads, bit-identical engine results),
   span balance (every recorded span is complete, even across raises),
   the per-domain buffer/drain discipline, ring-capacity accounting, the
   Chrome exporter's invariants and the determinism contract lifted to
   spans — the layer-span count cannot depend on the domain count. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
module Trace = Cdse_obs.Trace

(* A conformance-corpus case ("42 0 0 5" in test/corpus/seeds.txt): a
   random 6-state PSIOA under a bounded uniform scheduler — wide enough
   frontiers that the subtree engine actually hands out subtrees. *)
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
   sequential and multicore, plain and quotient-compressed. *)
let test_disabled_bit_identical () =
  let auto, sched, depth = corpus_system () in
  Trace.clear ();
  let plain = Measure.exec_dist ~domains:2 auto sched ~depth in
  let quot = Measure.exec_dist ~compress:`Quotient ~domains:2 auto sched ~depth in
  Trace.start ();
  let plain_t = Measure.exec_dist ~domains:2 auto sched ~depth in
  let quot_t = Measure.exec_dist ~compress:`Quotient ~domains:2 auto sched ~depth in
  Trace.stop ();
  Alcotest.(check bool) "a traced run recorded spans" true
    (Trace.events () <> []);
  Trace.clear ();
  Alcotest.(check bool) "traced run bit-identical" true
    (items_identical plain plain_t);
  Alcotest.(check bool) "traced quotient run bit-identical" true
    (items_identical quot quot_t)

(* Spans are balanced: every event in the store is complete (non-negative
   duration, no dangling opens — the exporter only ever emits "X"/"i"/"M"
   phases), and a span body that raises still records its span. *)
let test_spans_balanced () =
  Trace.start ();
  (try Trace.span "t.raises" (fun () -> failwith "boom") with Failure _ -> ());
  let auto, sched, depth = corpus_system () in
  ignore (Measure.exec_dist ~domains:2 auto sched ~depth);
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
  let contains needle =
    Astring.String.is_infix ~affix:needle chrome
  in
  Alcotest.(check bool) "chrome export has the traceEvents array" true
    (contains "\"traceEvents\"");
  Alcotest.(check bool) "chrome export names worker timelines" true
    (contains "\"thread_name\"");
  Alcotest.(check bool) "no unbalanced begin phase" false (contains "\"ph\": \"B\"");
  Alcotest.(check bool) "no unbalanced end phase" false (contains "\"ph\": \"E\"")

(* The determinism contract lifted to the trace: one measure.layer span
   per frontier layer, so the count is a pure function of the system and
   depth — identical across domain counts {1, 2, 4}. An active quotient
   keeps a multicore run on the layer loop (an unbudgeted quotient-free
   one takes the subtree engine, which has no layers). *)
let test_layer_spans_domain_independent () =
  let auto, sched, depth = corpus_system () in
  let layer_spans domains =
    Trace.start ();
    ignore (Measure.exec_dist ~compress:`Quotient ~domains auto sched ~depth);
    Trace.stop ();
    let n =
      List.length
        (List.filter
           (fun e -> e.Trace.ev_name = "measure.layer")
           (Trace.events ()))
    in
    Trace.clear ();
    n
  in
  let n1 = layer_spans 1 in
  Alcotest.(check bool) "sequential run has layer spans" true (n1 > 0);
  Alcotest.(check int) "domains=2 matches sequential" n1 (layer_spans 2);
  Alcotest.(check int) "domains=4 matches sequential" n1 (layer_spans 4)

(* The subtree engine's span vocabulary: an unbudgeted multicore run
   records the seed phase and per-subtree work spans, and no layer
   spans. *)
let test_subtree_spans () =
  let auto, sched, depth = corpus_system () in
  List.iter
    (fun domains ->
      Trace.start ();
      ignore (Measure.exec_dist ~domains auto sched ~depth);
      Trace.stop ();
      let evs = Trace.events () in
      Trace.clear ();
      let has name = List.exists (fun e -> e.Trace.ev_name = name) evs in
      Alcotest.(check bool) "seed span recorded" true (has "measure.seed");
      Alcotest.(check bool) "subtree work spans recorded" true
        (has "measure.subtree");
      Alcotest.(check bool) "single final merge span" true (has "measure.merge");
      Alcotest.(check bool) "no layer spans" false (has "measure.layer"))
    [ 2; 4 ]

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

(* Worker buffers divert events until drained, and stamp their domain id
   on everything recorded under them. *)
let test_buffer_drain () =
  Trace.start ();
  let buf = Trace.buffer ~dom:3 in
  Trace.with_buffer buf (fun () ->
      Trace.instant "t.worker";
      Trace.span "t.worker.span" (fun () -> ()));
  Alcotest.(check (list string)) "buffered events invisible before drain" []
    (List.map (fun e -> e.Trace.ev_name) (Trace.events ()));
  Trace.drain buf;
  let evs = Trace.events () in
  Trace.stop ();
  Trace.clear ();
  Alcotest.(check int) "drain delivered both events" 2 (List.length evs);
  Alcotest.(check bool) "buffered events carry the buffer's domain id" true
    (List.for_all (fun e -> e.Trace.ev_dom = 3) evs)

(* The self-profiling summary over a sequential and a multicore run of the
   same system: fractions are fractions, imbalance is max/mean, and the
   vocabulary was recognized — layer rows from the layer loop, worker rows
   from the subtree engine. *)
let test_summary_sane () =
  let auto, sched, depth = corpus_system () in
  Trace.start ();
  ignore (Measure.exec_dist auto sched ~depth);
  ignore (Measure.exec_dist ~domains:2 auto sched ~depth);
  Trace.stop ();
  let sm = Trace.summary () in
  Trace.clear ();
  Alcotest.(check bool) "spans counted" true (sm.Trace.sm_spans > 0);
  Alcotest.(check bool) "idle fraction in [0,1]" true
    (sm.Trace.sm_idle_frac >= 0. && sm.Trace.sm_idle_frac <= 1.);
  Alcotest.(check bool) "imbalance is max/mean, so >= 1" true
    (sm.Trace.sm_imbalance >= 1.);
  Alcotest.(check bool) "layer rows parsed" true (sm.Trace.sm_layers <> []);
  Alcotest.(check bool) "worker rows parsed" true (sm.Trace.sm_workers <> []);
  Alcotest.(check bool) "layer rows carry the frontier width" true
    (List.for_all (fun lr -> lr.Trace.lr_width > 0) sm.Trace.sm_layers)

(* The summary over a subtree-engine run alone: worker rows come from the
   measure.subtree spans, idle time from measure.steal.idle, and there
   are no layer rows. *)
let test_summary_subtree () =
  let auto, sched, depth = corpus_system () in
  Trace.start ();
  ignore (Measure.exec_dist ~domains:2 auto sched ~depth);
  Trace.stop ();
  let sm = Trace.summary () in
  Trace.clear ();
  Alcotest.(check bool) "spans counted" true (sm.Trace.sm_spans > 0);
  Alcotest.(check bool) "no layer rows in a layer-free run" true (sm.Trace.sm_layers = []);
  Alcotest.(check bool) "idle fraction in [0,1]" true
    (sm.Trace.sm_idle_frac >= 0. && sm.Trace.sm_idle_frac <= 1.);
  Alcotest.(check bool) "worker rows parsed from subtree spans" true
    (sm.Trace.sm_workers <> []);
  Alcotest.(check bool) "work units counted" true
    (List.exists (fun w -> w.Trace.wr_chunks > 0) sm.Trace.sm_workers)

(* Regression (probe isolation): the per-layer stats deltas of a run must
   be computed against a run-start baseline of the process-global Obs
   counters, not against zero. Before the fix, the first
   measure.layer.stats instant of every run after the first reported the
   whole process history, so two engine runs in one process corrupted each
   other's deltas. Two identical back-to-back runs (fresh caches each)
   must report identical per-layer deltas. *)
let test_probe_isolation () =
  let auto, sched, depth = corpus_system () in
  Cdse_obs.Obs.set_enabled true;
  let stats_of () =
    ignore (Measure.exec_dist ~memo:true auto sched ~depth);
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
  Cdse_obs.Obs.set_enabled false;
  Alcotest.(check bool) "stats instants recorded" true (run1 <> []);
  Alcotest.(check bool) "second run reports the same per-layer deltas" true
    (run1 = run2)

(* Regression (ring reuse): acquire/release recycles the per-worker rings
   instead of allocating a capacity-sized array per run, without leaking
   events or drop counts from one run into the next; a capacity change
   retires stale rings instead of reusing them. *)
let test_buffer_pool_reuse () =
  Trace.start ~capacity:32 ();
  let b1 = Trace.acquire_buffer ~dom:1 in
  Trace.with_buffer b1 (fun () ->
      for i = 1 to 100 do
        Trace.instant ~args:(fun () -> [ ("i", string_of_int i) ]) "t.flood"
      done);
  Trace.drain b1;
  Alcotest.(check int) "ring overflow counted" 68 (Trace.dropped ());
  Trace.release_buffer b1;
  let b2 = Trace.acquire_buffer ~dom:2 in
  Alcotest.(check bool) "ring physically reused" true (b1 == b2);
  Trace.clear ();
  Trace.with_buffer b2 (fun () -> Trace.instant "t.one");
  Trace.drain b2;
  Alcotest.(check (list string)) "no event leakage across runs" [ "t.one" ]
    (List.map (fun e -> e.Trace.ev_name) (Trace.events ()));
  Alcotest.(check int) "no drop-count leakage across runs" 0 (Trace.dropped ());
  Trace.release_buffer b2;
  Trace.start ~capacity:64 ();
  let b3 = Trace.acquire_buffer ~dom:1 in
  Alcotest.(check bool) "stale-capacity ring not reused" false (b3 == b2);
  Trace.stop ();
  Trace.clear ()

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
          Alcotest.test_case "layer spans independent of domain count" `Quick
            test_layer_spans_domain_independent;
          Alcotest.test_case "subtree engine span vocabulary" `Quick
            test_subtree_spans;
          Alcotest.test_case "capacity bound and dropped count" `Quick
            test_capacity_and_dropped;
          Alcotest.test_case "worker buffers drain at barriers" `Quick
            test_buffer_drain;
        ] );
      ( "summary",
        [
          Alcotest.test_case "attribution fractions sane" `Quick test_summary_sane;
          Alcotest.test_case "subtree summary sane" `Quick test_summary_subtree;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "layer-stats probe isolated per run" `Quick
            test_probe_isolation;
          Alcotest.test_case "buffer pool reuses rings without leakage" `Quick
            test_buffer_pool_reuse;
        ] );
    ]
