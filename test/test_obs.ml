(* Tests for the observability layer (lib/obs): instrument semantics, the
   free-when-disabled guarantee, and conservation properties tying the
   engine counters back to the exact measures they describe — the
   truncation-deficit gauge mirrors the `Truncated deficit exactly, and
   memo hits + misses account for every lookup. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit
module Obs = Cdse_obs.Obs

let act = Fixtures.act

let rat = Alcotest.testable (Fmt.of_to_string Rat.to_string) Rat.equal
let step1 a q x = List.hd (Dist.support (Psioa.step a q x))
let counter_of snap name = List.assoc name snap.Obs.s_counters

(* --------------------------------------------------------- instruments *)

let test_instrument_basics () =
  let c1 = Obs.counter "test.basic.count" in
  let c2 = Obs.counter "test.basic.count" in
  Obs.set_enabled false;
  Obs.incr c1;
  Alcotest.(check int) "disabled incr is a no-op" 0 (Obs.count c1);
  let (), snap =
    Obs.with_stats (fun () ->
        Obs.incr c1;
        Obs.add c2 4;
        let h = Obs.histogram "test.basic.hist" in
        List.iter (Obs.observe h) [ 0; 1; 2; 3; 4; 7; 8 ])
  in
  Alcotest.(check int) "registration idempotent: handles share state" 5
    (counter_of snap "test.basic.count");
  let h = List.assoc "test.basic.hist" snap.Obs.s_histograms in
  Alcotest.(check int) "hist count" 7 h.Obs.h_count;
  Alcotest.(check int) "hist sum" 25 h.Obs.h_sum;
  Alcotest.(check int) "hist max" 8 h.Obs.h_max;
  Alcotest.(check (list (pair int int)))
    "power-of-two bucket upper bounds"
    [ (0, 1); (1, 1); (3, 2); (7, 2); (15, 1) ]
    h.Obs.h_buckets;
  Alcotest.(check bool) "with_stats restored the disabled state" false
    (Obs.enabled ())

let test_histogram_percentiles () =
  (* 100 observations 1..100: the percentile estimate is the upper bound
     of the first power-of-two bucket covering the rank, capped at the
     recorded max — so p50 <= 63 (bucket 32..63), p90 <= 100 (bucket
     64..127 capped) and p99/p100 hit the max exactly. *)
  let (), snap =
    Obs.with_stats (fun () ->
        let h = Obs.histogram "test.pct.hist" in
        for v = 1 to 100 do
          Obs.observe h v
        done)
  in
  let h = List.assoc "test.pct.hist" snap.Obs.s_histograms in
  Alcotest.(check int) "min recorded" 1 h.Obs.h_min;
  Alcotest.(check int) "max recorded" 100 h.Obs.h_max;
  Alcotest.(check int) "p50 upper bound is its bucket's" 63
    (Obs.hist_percentile h 0.50);
  Alcotest.(check int) "p90 capped at the recorded max" 100
    (Obs.hist_percentile h 0.90);
  Alcotest.(check int) "p99 = max" 100 (Obs.hist_percentile h 0.99);
  (* Degenerate shapes: a single observation answers itself at every
     percentile; an empty histogram answers 0. *)
  let (), snap =
    Obs.with_stats (fun () -> Obs.observe (Obs.histogram "test.pct.one") 5)
  in
  let one = List.assoc "test.pct.one" snap.Obs.s_histograms in
  Alcotest.(check int) "singleton p50 = the value" 5 (Obs.hist_percentile one 0.5);
  Alcotest.(check int) "singleton p99 = the value" 5 (Obs.hist_percentile one 0.99);
  Alcotest.(check int) "singleton min = the value" 5 one.Obs.h_min;
  let (), snap =
    Obs.with_stats (fun () -> ignore (Obs.histogram "test.pct.empty"))
  in
  let empty = List.assoc "test.pct.empty" snap.Obs.s_histograms in
  Alcotest.(check int) "empty histogram: percentile 0" 0
    (Obs.hist_percentile empty 0.5)

(* -------------------------------------------------------- conservation *)

let test_memo_counters_account_every_lookup () =
  (* Wrap a counter automaton so the raw signature/transition functions
     count their own invocations, memoize the wrapper, and walk the same
     path twice: hits + misses must equal the lookups issued, and misses
     must equal the raw calls that fell through the cache. A signature
     read first meets the automaton's last-evaluation entry: each state's
     second read hits it, so half of the 12 reads reach the memo table.
     A memo miss reads the wrapped automaton through its own entry, which
     misses too: one more read per memo miss. *)
  let raw_sig = ref 0 and raw_tr = ref 0 in
  let inner = Fixtures.counter ~bound:4 "k" in
  (* Read outside the stats window, so the counters see only [m]'s reads. *)
  let inner_sigs = List.map (fun q -> (q, Psioa.signature inner q)) (Psioa.reachable inner) in
  let counted =
    Psioa.make ~name:"k" ~start:(Psioa.start inner)
      ~signature:(fun q ->
        incr raw_sig;
        List.assoc q inner_sigs)
      ~transition:(fun q x ->
        incr raw_tr;
        Psioa.transition inner q x)
  in
  let m = Psioa.memoize counted in
  let inc = act "k.inc" in
  let walk () =
    let q = ref (Psioa.start m) in
    for _ = 1 to 3 do
      ignore (Psioa.signature m !q);
      ignore (Psioa.signature m !q);
      q := step1 m !q inc
    done
  in
  let (), snap =
    Obs.with_stats (fun () ->
        walk ();
        walk ())
  in
  let last_hit = counter_of snap "psioa.sig.last.hit"
  and last_miss = counter_of snap "psioa.sig.last.miss" in
  let hit = counter_of snap "psioa.memo.sig.hit"
  and miss = counter_of snap "psioa.memo.sig.miss" in
  Alcotest.(check int) "sig: last hits + misses = reads issued" (12 + miss) (last_hit + last_miss);
  Alcotest.(check int) "sig: last misses = memo lookups + memo misses" (6 + miss) last_miss;
  Alcotest.(check int) "sig: memo hits + misses = memo lookups" 6 (hit + miss);
  Alcotest.(check int) "sig: one memo miss per state" 3 miss;
  Alcotest.(check int) "sig: misses = raw calls through the cache" !raw_sig miss;
  let hit = counter_of snap "psioa.memo.step.hit"
  and miss = counter_of snap "psioa.memo.step.miss" in
  Alcotest.(check int) "step: hits + misses = lookups issued" 6 (hit + miss);
  Alcotest.(check int) "step: misses = raw calls through the cache" !raw_tr miss

let test_truncation_deficit_gauge_exact () =
  (* A random walk branches two ways per step, so a width budget of 3
     must truncate: the measure.truncation_deficit gauge, reparsed as an
     exact rational, equals the `Truncated deficit bit for bit. *)
  let sys = Fixtures.random_walk ~span:4 "w" in
  let sched = Scheduler.bounded 6 (Scheduler.uniform sys) in
  let res, snap =
    Obs.with_stats (fun () ->
        Measure.exec_dist_budgeted ~max_width:3 sys sched ~depth:5)
  in
  match res with
  | `Exact _ -> Alcotest.fail "expected width truncation"
  | `Truncated (d, lost) ->
      Alcotest.(check bool) "deficit is positive" true (Rat.sign lost > 0);
      let g = List.assoc "measure.truncation_deficit" snap.Obs.s_gauges in
      Alcotest.check rat "gauge mirrors the deficit exactly" lost (Rat.of_string g);
      Alcotest.check rat "mass + deficit = 1" Rat.one (Rat.add (Dist.mass d) lost);
      Alcotest.(check bool) "measure.truncated counted drops" true
        (counter_of snap "measure.truncated" > 0)

let test_exact_run_reports_zero_deficit () =
  let sys = Fixtures.counter ~bound:3 "k" in
  let sched = Scheduler.bounded 4 (Scheduler.uniform sys) in
  let res, snap =
    Obs.with_stats (fun () -> Measure.exec_dist_budgeted sys sched ~depth:5)
  in
  (match res with
  | `Exact _ -> ()
  | `Truncated _ -> Alcotest.fail "unexpected truncation");
  let g = List.assoc "measure.truncation_deficit" snap.Obs.s_gauges in
  Alcotest.check rat "gauge reads zero after an `Exact run" Rat.zero (Rat.of_string g);
  Alcotest.(check int) "nothing truncated" 0 (counter_of snap "measure.truncated");
  let h = List.assoc "measure.frontier.width" snap.Obs.s_histograms in
  Alcotest.(check bool) "layers were counted" true (counter_of snap "measure.layers" > 0);
  Alcotest.(check int) "one width observation per layer"
    (counter_of snap "measure.layers")
    h.Obs.h_count

let test_disabled_mode_free_and_identical () =
  let sys = Fixtures.random_walk ~span:3 "w" in
  let sched = Scheduler.bounded 4 (Scheduler.uniform sys) in
  Obs.set_enabled false;
  Obs.reset ();
  let d_off = Measure.exec_dist sys sched ~depth:4 in
  let s = Obs.snapshot () in
  Alcotest.(check bool) "no counter moved while disabled" true
    (List.for_all (fun (_, v) -> v = 0) s.Obs.s_counters);
  Alcotest.(check bool) "no histogram observation while disabled" true
    (List.for_all (fun (_, h) -> h.Obs.h_count = 0) s.Obs.s_histograms);
  Alcotest.(check bool) "no gauge set while disabled" true (s.Obs.s_gauges = []);
  let d_on, _ =
    Obs.with_stats (fun () -> Measure.exec_dist sys sched ~depth:4)
  in
  Alcotest.(check bool) "stats on/off compute the identical measure" true
    (Dist.equal d_off d_on)

let () =
  Alcotest.run "cdse_obs"
    [ ( "instruments",
        [ Alcotest.test_case "counters, histograms, with_stats" `Quick
            test_instrument_basics;
          Alcotest.test_case "histogram min and percentiles" `Quick
            test_histogram_percentiles ] );
      ( "conservation",
        [ Alcotest.test_case "memo hits + misses = lookups" `Quick
            test_memo_counters_account_every_lookup;
          Alcotest.test_case "truncation gauge = exact deficit" `Quick
            test_truncation_deficit_gauge_exact;
          Alcotest.test_case "exact run: zero deficit, widths per layer" `Quick
            test_exact_run_reports_zero_deficit;
          Alcotest.test_case "disabled mode is free and identical" `Quick
            test_disabled_mode_free_and_identical ] ) ]
