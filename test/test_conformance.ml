(* Differential conformance suite for the exact-measure engines.

   Two independent implementations compute the Section 3 depth-bounded
   execution measure: the naive list-based oracle (test/support/oracle.ml,
   shares no code with production) and the engine's layer loop
   (Measure.exec_dist). The suite generates random PSIOAs and PCAs
   (including fault-wrapped churning ones) and asserts that they agree,
   and that the engine's memo and compression settings change nothing
   they promise to keep — distributions Dist.equal, budget tags and
   deficits identical, Obs totals conserved.

   A committed corpus of previously interesting seeds (test/corpus/) is
   replayed first, then the randomized properties run with shrinking. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit

let qtest = QCheck_alcotest.to_alcotest

(* Compression level threaded through the budgeted / Obs properties, so a
   CI leg (CDSE_TEST_COMPRESS=quotient) replays the whole determinism
   battery on the compressed engine. The main [conforms] check
   always exercises every level regardless. An unknown level name fails
   the suite, so a typo cannot silently test `Off. *)
let test_compress : Measure.compress =
  let levels = Measure.compress_levels in
  match Sys.getenv_opt "CDSE_TEST_COMPRESS" with
  | None -> `Off
  | Some name -> (
      match List.assoc_opt name levels with
      | Some c -> c
      | None ->
          failwith
            (Printf.sprintf "CDSE_TEST_COMPRESS=%S: expected one of %s" name
               (String.concat ", " (List.map fst levels))))

(* ------------------------------------------------------------ scenarios *)

(* A conformance case is four small integers; everything else is derived
   deterministically, so qcheck's integer shrinking shrinks the case. *)
type case = { seed : int; kind : int; sched : int; depth : int }

(* kind 3 (the robustness corner): a via-spliced faulty channel — lossy
   on even seeds, reordering on odd — feeds a compromisable receiver
   whose takeover is put under scheduler control by an injector
   (Cdse_gen.Workloads.faulty_channel, shared with the serve daemon's
   model registry). [build] then meters channel faults and takeovers
   together with [Fault.budget_sched], so the fault combinators are
   exercised end to end through every engine. *)
let build { seed; kind; sched; depth } =
  let rng = Rng.make seed in
  let auto =
    match kind mod 4 with
    | 0 -> Cdse_gen.Random_auto.make ~rng ~name:"ca" ~n_states:6 ~n_actions:3 ()
    | 1 -> Cdse_config.Pca.psioa (Cdse_gen.Random_pca.make ~rng ~n_members:3 ())
    | 2 ->
        Cdse_config.Pca.psioa
          (Cdse_gen.Random_pca.make ~rng ~n_members:3 ~faults:true ())
    | _ -> Cdse_gen.Workloads.faulty_channel ~seed
  in
  let sched =
    match sched mod 3 with
    | 0 -> Scheduler.uniform auto
    | 1 -> Scheduler.first_enabled auto
    | _ -> Scheduler.round_robin auto
  in
  let sched =
    (* kind 3 runs under a fault budget of k = (seed/2) mod 3, counting
       channel drops/skips and takeovers against the same cap. *)
    if kind mod 4 = 3 then Cdse_fault.Fault.budget_sched ((seed / 2) mod 3) sched
    else sched
  in
  (auto, Scheduler.bounded depth sched, depth)

let case_arb =
  let open QCheck in
  map
    ~rev:(fun { seed; kind; sched; depth } -> (seed, kind, sched, depth))
    (fun (seed, kind, sched, depth) -> { seed; kind; sched; depth })
    (quad (int_bound 100_000) (int_bound 3) (int_bound 2) (int_range 2 4))

let print_case { seed; kind; sched; depth } =
  Printf.sprintf "{seed=%d; kind=%d; sched=%d; depth=%d}" seed kind sched depth

let case_arb = QCheck.set_print print_case case_arb

(* ------------------------------------------------------------ equality *)

let budgeted_equal eq a b =
  match (a, b) with
  | `Exact d1, `Exact d2 -> eq d1 d2
  | `Truncated (d1, l1), `Truncated (d2, l2) -> eq d1 d2 && Rat.equal l1 l2
  | _ -> false

(* Same entries in the same order with the same exact masses: the
   in-memory normal form, not just [Dist.equal]. *)
let items_identical d1 d2 =
  let i1 = Dist.items d1 and i2 = Dist.items d2 in
  List.length i1 = List.length i2
  && List.for_all2 (fun (e, p) (e', p') -> Exec.compare e e' = 0 && Rat.equal p p') i1 i2

let counter snapshot name =
  Option.value ~default:0 (List.assoc_opt name snapshot.Cdse_obs.Obs.s_counters)

let trace_push auto d =
  Dist.map
    ~compare:(Cdse_util.Order.list Action.compare)
    (Exec.trace ~sig_of:(Psioa.signature auto))
    d

(* The full conformance check for one case: oracle vs plain vs memoized,
   then the compression levels — [`Hcons] must be bit-identical (checked
   entry by entry, not just [Dist.equal], so a normal-form drift would
   also be caught), memoized too; [`Quotient] must agree with the oracle's
   trace pushforward and preserve the total mass/deficit, and be
   bit-identical to itself with memo on. *)
let conforms case =
  let auto, sched, depth = build case in
  let reference = Oracle.exec_dist auto sched ~depth in
  let seq = Measure.exec_dist auto sched ~depth in
  Dist.equal reference seq
  && Dist.equal seq (Measure.exec_dist ~memo:true auto sched ~depth)
  && items_identical seq (Measure.exec_dist ~compress:`Hcons auto sched ~depth)
  && Dist.equal seq (Measure.exec_dist ~compress:`Hcons ~memo:true auto sched ~depth)
  &&
  let q = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
  Dist.equal (trace_push auto reference)
    (Measure.trace_dist ~compress:`Quotient auto sched ~depth)
  && Rat.equal (Dist.mass seq) (Dist.mass q)
  && Rat.equal (Dist.deficit seq) (Dist.deficit q)
  && items_identical q (Measure.exec_dist ~compress:`Quotient ~memo:true auto sched ~depth)

let prop_conformance =
  QCheck.Test.make ~count:200
    ~name:"oracle = sequential = memoized = multi-level compressed (exec_dist)" case_arb
    conforms

(* Quantities the determinism contract keeps across [memo] settings: the
   layer, finished and truncation counts, the quotient counters, the
   deficit gauge and the frontier widths. The memo and choice caches'
   own counters are absent: with memo off they are never touched. *)
let conserved snapshot =
  let c = counter snapshot in
  ( c "measure.layers",
    c "measure.finished",
    c "measure.truncated",
    c "quotient.classes",
    c "quotient.merged",
    List.assoc_opt "measure.truncation_deficit" snapshot.Cdse_obs.Obs.s_gauges,
    List.assoc_opt "measure.frontier.width" snapshot.Cdse_obs.Obs.s_histograms )

(* Budgets: the oracle has none, so the plain engine is the reference; the
   tag ([`Exact] / [`Truncated]), the exact deficit and the Obs totals
   must not depend on [memo]. *)
let prop_budgeted_conformance =
  QCheck.Test.make ~count:100
    ~name:"budget tag and deficit identical across memo settings" case_arb
    (fun case ->
      let auto, sched, depth = build case in
      let width = 1 + (case.seed mod 7) in
      let cap = 2 + (case.seed mod 11) in
      let run memo =
        Cdse_obs.Obs.with_stats (fun () ->
            Measure.exec_dist_budgeted ~memo ~compress:test_compress ~max_width:width
              ~max_execs:cap auto sched ~depth)
      in
      let plain, plain_snap = run false and memo, memo_snap = run true in
      budgeted_equal Dist.equal plain memo && conserved plain_snap = conserved memo_snap)

(* The same invariant on the quotient engine unconditionally: the budget
   tag and exact deficit cannot depend on [memo] (the quotient merge
   happens before the budgets and is permutation-insensitive). *)
let prop_budgeted_quotient =
  QCheck.Test.make ~count:60
    ~name:"quotient: budget tag and deficit identical across memo settings"
    case_arb
    (fun case ->
      let auto, sched, depth = build case in
      let width = 1 + (case.seed mod 7) in
      let run memo =
        Measure.exec_dist_budgeted ~memo ~compress:`Quotient ~max_width:width auto sched
          ~depth
      in
      budgeted_equal Dist.equal (run false) (run true))

(* ------------------------------------------- error-propagation audit *)

(* A scheduler raise must surface at once, for the failing entry, and
   leave the engine usable: the failing execution is a prefix of the
   [Exec.compare]-least completed execution of full depth, so it is
   visited as a cone node, whether it fails at length 2 or 4. With two
   failing entries, the one met first in frontier order is raised. *)
exception Boom of int

let prefix_exec n e =
  let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> [] in
  List.fold_left
    (fun acc (a, q) -> Exec.extend acc a q)
    (Exec.init (Exec.fstate e))
    (take n (Exec.steps e))

let test_error_propagation () =
  let auto, sched, depth = build { seed = 42; kind = 0; sched = 0; depth = 5 } in
  let clean = Measure.exec_dist auto sched ~depth in
  let full = List.filter (fun (e, _) -> Exec.length e = depth) (Dist.items clean) in
  (* Dist items are sorted by Exec.compare: the least and the greatest
     completed executions of full depth. *)
  let deepest = fst (List.hd full) and last = fst (List.hd (List.rev full)) in
  let failure_of targets =
    let raising =
      Scheduler.make ~validated:true ~name:"raising" (fun e ->
          if List.exists (fun t -> Exec.compare e t = 0) targets then
            raise (Boom (Exec.hash e))
          else Scheduler.validate_choice auto sched e)
    in
    match Measure.exec_dist auto raising ~depth with
    | (_ : Exec.t Dist.t) -> None
    | exception Boom h -> Some h
  in
  List.iter
    (fun len ->
      let target = prefix_exec len deepest in
      Alcotest.(check (option int))
        (Printf.sprintf "the failing entry is raised (length-%d target)" len)
        (Some (Exec.hash target))
        (failure_of [ target ]);
      (* Usable after the raise: the same call produces the clean
         measure again with a non-raising scheduler. *)
      Alcotest.(check bool)
        (Printf.sprintf "engine usable after raise (length-%d target)" len)
        true
        (Dist.equal clean (Measure.exec_dist auto sched ~depth)))
    [ 2; 4 ];
  let t1 = prefix_exec 4 deepest and t2 = prefix_exec 4 last in
  Alcotest.(check bool) "two distinct targets, told apart by their hashes" true
    (Exec.compare t1 t2 < 0 && Exec.hash t1 <> Exec.hash t2);
  let first = failure_of [ t1; t2 ] in
  Alcotest.(check bool) "one of two failing entries is raised" true
    (first = Some (Exec.hash t1) || first = Some (Exec.hash t2));
  Alcotest.(check (option int)) "a second run raises the same one" first
    (failure_of [ t1; t2 ])

(* Budget pruning is the only frontier-order-sensitive step in the engine
   (everything else folds with exact, commutative rational arithmetic into
   order-normalizing Dist.make). Its comparator (probability descending,
   Exec.compare ascending) is a total order on any frontier — distinct
   cone branches are distinct executions — so permuting the frontier must
   leave both the kept entries and the dropped mass unchanged. *)
let prop_truncate_permutation_invariant =
  QCheck.Test.make ~count:50 ~name:"frontier permutation leaves pruning unchanged"
    case_arb (fun case ->
      let auto, sched, depth = build case in
      let entries = Dist.items (Measure.exec_dist auto sched ~depth) in
      let keep = 1 + (case.seed mod 5) in
      let kept, lost = Measure.For_tests.truncate_entries ~keep entries in
      let rng = Rng.make (case.seed + 1) in
      List.for_all
        (fun _ ->
          let kept', lost' =
            Measure.For_tests.truncate_entries ~keep (Rng.shuffle rng entries)
          in
          Rat.equal lost lost'
          && List.length kept = List.length kept'
          && List.for_all2
               (fun (e, p) (e', p') -> Exec.compare e e' = 0 && Rat.equal p p')
               kept kept')
        [ 1; 2; 3 ])

(* ------------------------------------------------- hash-consing audit *)

(* Random value trees, biased toward a small alphabet so structurally
   equal values are actually generated from distinct seeds and the
   interning paths (hit, miss, child-sharing) all fire. *)
let gen_value seed =
  let rng = Rng.make seed in
  let rec go fuel =
    match Rng.int rng (if fuel = 0 then 4 else 7) with
    | 0 -> Value.unit
    | 1 -> Value.bool (Rng.bool rng)
    | 2 -> Value.int (Rng.int rng 5)
    | 3 -> Value.str (String.make 1 (Char.chr (Char.code 'a' + Rng.int rng 3)))
    | 4 -> Value.pair (go (fuel - 1)) (go (fuel - 1))
    | 5 -> Value.list [ go (fuel - 1); go (fuel - 1) ]
    | _ -> Value.tag "t" (go (fuel - 1))
  in
  go 3

let seed_pair_arb = QCheck.(pair (int_bound 100_000) (int_bound 100_000))

(* make is idempotent and semantics-preserving: the canonical
   representative is structurally equal to the input, and re-interning a
   canonical value is physically the identity. *)
let prop_hcons_idempotent =
  QCheck.Test.make ~count:300 ~name:"hcons: make (make v) == make v, compare = 0"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let t = Hcons.create () in
      let v = gen_value seed in
      let c = Hcons.make t v in
      Hcons.make t c == c && Value.compare c v = 0)

(* Within one table, physical equality of representatives is exactly
   structural equality of the sources. *)
let prop_hcons_phys_eq =
  QCheck.Test.make ~count:300
    ~name:"hcons: make a == make b iff Value.compare a b = 0" seed_pair_arb
    (fun (s1, s2) ->
      let t = Hcons.create () in
      let a = gen_value s1 and b = gen_value s2 in
      Hcons.make t a == Hcons.make t b = (Value.compare a b = 0))

(* Exec.compare cannot distinguish an execution built from raw values from
   one built from their canonical representatives — interning never
   changes an ordering decision, in either mixed direction. *)
let prop_hcons_exec_compare =
  QCheck.Test.make ~count:300 ~name:"hcons: Exec.compare unchanged by interning"
    seed_pair_arb
    (fun (s1, s2) ->
      let t = Hcons.create () in
      let step = Action.make "step" in
      let exec_of seed =
        let rng = Rng.make seed in
        let e = ref (Exec.init (gen_value (Rng.int rng 100_000))) in
        for _ = 1 to 1 + Rng.int rng 3 do
          e := Exec.extend !e step (gen_value (Rng.int rng 100_000))
        done;
        !e
      in
      let intern e =
        List.fold_left
          (fun acc (a, q) -> Exec.extend acc a (Hcons.make t q))
          (Exec.init (Hcons.make t (Exec.fstate e)))
          (Exec.steps e)
      in
      let e1 = exec_of s1 and e2 = exec_of s2 in
      let c = Exec.compare e1 e2 in
      Exec.compare (intern e1) (intern e2) = c
      && Exec.compare (intern e1) e2 = c
      && Exec.compare e1 (intern e2) = c)

(* ------------------------------------------------------- corpus replay *)

(* Seeds that once exposed bugs or cover structural corners (faulty PCAs,
   truncating runs, deep uniform branching). Replayed verbatim before the
   randomized properties; add a line whenever qcheck shrinks a failure. *)
let corpus () =
  (* dune runtest runs with cwd = the test stanza's build dir (where the
     (deps) corpus lives); dune exec from the root does not — also look
     next to the executable. *)
  let candidates =
    [
      Filename.concat "corpus" "seeds.txt";
      Filename.concat (Filename.dirname Sys.executable_name) "corpus/seeds.txt";
      "test/corpus/seeds.txt";
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> List.hd candidates
  in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
        match String.trim line with
        | "" -> go acc
        | l when l.[0] = '#' -> go acc
        | l ->
            (match List.map int_of_string (String.split_on_char ' ' l) with
            | [ seed; kind; sched; depth ] -> go ({ seed; kind; sched; depth } :: acc)
            | _ -> failwith ("bad corpus line: " ^ l)))
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_corpus () =
  List.iter
    (fun case ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus case %s conforms" (print_case case))
        true (conforms case))
    (corpus ())

(* The corpus again with the span tracer live: tracing a quotient-
   compressed run must not perturb the measure (bit-identical entries),
   and the trace itself must be well-formed — balanced spans with
   non-negative durations, layer spans present, every event on domain 0.
   Catches any instrumentation that accidentally reorders or re-times
   engine work. *)
let test_corpus_traced () =
  let module Trace = Cdse_obs.Trace in
  List.iter
    (fun case ->
      let auto, sched, depth = build case in
      let plain = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
      Trace.start ();
      let traced = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
      Trace.stop ();
      let evs = Trace.events () in
      Trace.clear ();
      Alcotest.(check bool)
        (Printf.sprintf "traced quotient run bit-identical for %s"
           (print_case case))
        true (items_identical plain traced);
      Alcotest.(check bool)
        (Printf.sprintf "trace well-formed for %s" (print_case case))
        true
        (evs <> []
        && List.for_all (fun e -> e.Trace.ev_dur >= 0. && e.Trace.ev_dom = 0) evs
        && List.exists (fun e -> e.Trace.ev_name = "measure.layer") evs))
    (corpus ())

(* ---------------------------------------------------------------- serve *)

(* Replay the committed corpus through the cdse_serve daemon: every case
   becomes a wire-level measure request carrying the same model/scheduler
   *specification* that [build] elaborates locally (seed, kind, fault
   budget, bound), and the decoded reply must be bit-identical — items,
   rationals, tag, deficit — to the naive oracle. This closes the loop
   between the conformance contract and the serving path: spec
   elaboration, canonical cache keys, frontier reuse and the exact wire
   codec all sit between the two sides being compared. *)

module Sjson = Cdse_serve.Json

let case_request case =
  let num i = Sjson.Num (float_of_int i) in
  let model =
    match case.kind mod 4 with
    | 0 ->
        Sjson.Obj
          [
            ("kind", Sjson.Str "random_auto");
            ("seed", num case.seed);
            ("states", num 6);
            ("actions", num 3);
          ]
    | 1 ->
        Sjson.Obj
          [
            ("kind", Sjson.Str "random_pca");
            ("seed", num case.seed);
            ("members", num 3);
          ]
    | 2 ->
        Sjson.Obj
          [
            ("kind", Sjson.Str "random_pca");
            ("seed", num case.seed);
            ("members", num 3);
            ("faults", Sjson.Bool true);
          ]
    | _ -> Sjson.Obj [ ("kind", Sjson.Str "faulty_channel"); ("seed", num case.seed) ]
  in
  let sched =
    Sjson.Obj
      (("kind",
        Sjson.Str
          (match case.sched mod 3 with
          | 0 -> "uniform"
          | 1 -> "first_enabled"
          | _ -> "round_robin"))
      :: (if case.kind mod 4 = 3 then
            [ ("fault_budget", num ((case.seed / 2) mod 3)) ]
          else [])
      @ [ ("bound", num case.depth) ])
  in
  [
    ("op", Sjson.Str "measure");
    ("model", model);
    ("sched", sched);
    ("depth", num case.depth);
  ]

let test_serve_corpus () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cdse-conf-%d.sock" (Unix.getpid ()))
  in
  let server = Cdse_serve.Server.start ~workers:2 ~socket () in
  Fun.protect
    ~finally:(fun () -> Cdse_serve.Server.stop server)
    (fun () ->
      let client = Serve_client.connect socket in
      Fun.protect
        ~finally:(fun () -> Serve_client.close client)
        (fun () ->
          List.iter
            (fun case ->
              let reply = Serve_client.request client (case_request case) in
              if not reply.Serve_client.r_ok then
                Alcotest.failf "serve error for %s: %s" (print_case case)
                  (Sjson.to_string reply.Serve_client.r_body);
              let body = reply.Serve_client.r_body in
              Alcotest.(check string)
                (Printf.sprintf "exact tag for %s" (print_case case))
                "exact"
                (Serve_client.str (Serve_client.field "tag" body));
              let served =
                Cdse_serve.Codec.dist_of_json (Serve_client.field "dist" body)
              in
              let auto, sched, depth = build case in
              let reference = Oracle.exec_dist auto sched ~depth in
              let identical =
                items_identical served reference
                && Rat.equal (Dist.deficit served) (Dist.deficit reference)
              in
              Alcotest.(check bool)
                (Printf.sprintf "daemon bit-identical to oracle for %s"
                   (print_case case))
                true identical)
            (corpus ())))

let () =
  Alcotest.run "conformance"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay committed seed corpus" `Quick test_corpus;
          Alcotest.test_case "replay corpus traced (quotient, domain 0)" `Quick
            test_corpus_traced;
        ] );
      ( "differential",
        [
          qtest prop_conformance;
          qtest prop_budgeted_conformance;
          qtest prop_budgeted_quotient;
        ] );
      ( "errors",
        [
          Alcotest.test_case "raise surfaces deterministically from the layer loop"
            `Quick test_error_propagation;
        ] );
      ( "determinism",
        [ qtest prop_truncate_permutation_invariant ] );
      ( "hcons",
        [
          qtest prop_hcons_idempotent;
          qtest prop_hcons_phys_eq;
          qtest prop_hcons_exec_compare;
        ] );
      ( "serve",
        [
          Alcotest.test_case "replay corpus through the daemon" `Quick
            test_serve_corpus;
        ] );
    ]
