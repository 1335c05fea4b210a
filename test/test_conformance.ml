(* Differential conformance suite for the exact-measure engines.

   Two independent implementations compute the Section 3 depth-bounded
   execution measure: the naive list-based oracle (test/support/oracle.ml,
   shares no code with production) and the engine's layer loop
   (Measure.exec_dist). The suite generates random PSIOAs and PCAs
   (including fault-wrapped churning ones) and asserts that they agree
   entry by entry, budgets included, and that the quotient keeps what it
   promises to keep — trace distributions, total mass and deficit.

   A committed corpus of previously interesting seeds (test/corpus/) is
   replayed first, then the randomized properties run with shrinking. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit

let qtest = QCheck_alcotest.to_alcotest

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

(* The full conformance check for one case: the engine at [`Off] equals
   the oracle entry by entry (not just [Dist.equal], so a normal-form
   drift would also be caught); [`Quotient] must agree with the oracle's
   trace pushforward and preserve the total mass/deficit. *)
let conforms case =
  let auto, sched, depth = build case in
  let reference = Oracle.exec_dist auto sched ~depth in
  items_identical reference (Measure.exec_dist auto sched ~depth)
  &&
  let q = Measure.exec_dist ~compress:`Quotient auto sched ~depth in
  Dist.equal (trace_push auto reference) (trace_push auto q)
  && Rat.equal (Dist.mass reference) (Dist.mass q)
  && Rat.equal (Dist.deficit reference) (Dist.deficit q)

let prop_conformance =
  QCheck.Test.make ~count:200
    ~name:"oracle = sequential = memoized = multi-level compressed (exec_dist)" case_arb
    conforms

(* Budgets against the oracle's budgets: the tag ([`Exact] /
   [`Truncated]), every kept entry and the exact deficit, plus the
   [measure.truncated] count and the deficit gauge. *)
let prop_budgeted_conformance =
  QCheck.Test.make ~count:100 ~name:"budgeted engine = budgeted oracle" case_arb
    (fun case ->
      let auto, sched, depth = build case in
      let max_width = 1 + (case.seed mod 7) in
      let max_execs = 2 + (case.seed mod 11) in
      let reference, pruned =
        Oracle.exec_dist_budgeted ~max_execs ~max_width auto sched ~depth
      in
      let res, snap =
        Cdse_obs.Obs.with_stats (fun () ->
            Measure.exec_dist_budgeted ~max_execs ~max_width auto sched ~depth)
      in
      let lost = match reference with `Exact _ -> Rat.zero | `Truncated (_, l) -> l in
      budgeted_equal items_identical reference res
      && counter snap "measure.truncated" = pruned
      && List.assoc_opt "measure.truncation_deficit" snap.Cdse_obs.Obs.s_gauges
         = Some (Rat.to_string lost))

(* A budgeted quotient run keeps exact books and never invents mass: its
   kept mass plus the deficit is 1, and no trace carries more mass than
   the oracle's unbudgeted trace distribution gives it. *)
let prop_budgeted_quotient =
  QCheck.Test.make ~count:60
    ~name:"budgeted quotient: oracle-bounded" case_arb
    (fun case ->
      let auto, sched, depth = build case in
      let max_width = 1 + (case.seed mod 7) in
      let d, lost =
        match
          Measure.exec_dist_budgeted ~compress:`Quotient ~max_width auto sched ~depth
        with
        | `Exact d -> (d, Rat.zero)
        | `Truncated (d, lost) -> (d, lost)
      in
      let full = trace_push auto (Oracle.exec_dist auto sched ~depth) in
      Rat.equal Rat.one (Rat.add (Dist.mass d) lost)
      && Dist.fold
           (fun ok tr p -> ok && Rat.compare p (Dist.prob full tr) <= 0)
           true (trace_push auto d))

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
      ( "serve",
        [
          Alcotest.test_case "replay corpus through the daemon" `Quick
            test_serve_corpus;
        ] );
    ]
