open Cdse_prob
open Cdse_psioa
module Obs = Cdse_obs.Obs
module Trace = Cdse_obs.Trace

type 'a budgeted = [ `Exact of 'a | `Truncated of 'a * Rat.t ]

type compress = [ `Off | `Hcons | `Quotient ]

let compress_levels = [ ("off", `Off); ("hcons", `Hcons); ("quotient", `Quotient) ]

(* A resumable expansion frontier: the alive entries (each of length
   [f_depth]) plus the finished mass accumulated on the way there. Only
   frontiers of {e unbudgeted} runs are resumable — the budgeted entry
   point discards its frontier, so a truncated one is never observable. *)
type frontier = {
  f_depth : int;
  f_alive : (Exec.t * Rat.t) list;
  f_finished : (Exec.t * Rat.t) list;
}

let start_frontier auto = function
  | None -> (0, [ (Exec.init (Psioa.start auto), Rat.one) ], [])
  | Some f -> (f.f_depth, f.f_alive, f.f_finished)

(* Layer-loop instruments (shared by name with any other reader:
   registration is idempotent). The frontier-width histogram is fed once
   per layer; [measure.truncation_deficit] mirrors the [`Truncated]
   deficit exactly ([Rat.to_string], reparsable with [Rat.of_string]) and
   reads "0" after an [`Exact] run. Subtree workers only ever touch
   counters, through per-worker {!Obs.probe}s joined when they finish. *)
let h_width = Obs.histogram "measure.frontier.width"
let c_layers = Obs.counter "measure.layers"
let c_finished = Obs.counter "measure.finished"
let c_truncated = Obs.counter "measure.truncated"
let c_choice_hit = Obs.counter "measure.choice.hit"
let c_choice_miss = Obs.counter "measure.choice.miss"
let g_deficit = Obs.gauge "measure.truncation_deficit"

(* Compression instruments. [measure.frontier.width_compressed] mirrors
   [measure.frontier.width] but records the post-quotient width of each
   layer; [quotient.classes] / [quotient.merged] count the surviving
   classes and the entries absorbed into another representative across
   the run; [quotient.mass_merged] is the cumulative exact-rational mass
   those absorbed entries carried ([Rat.to_string], reparsable). The
   quotient only ever runs in the sequential layer loop, while
   [hcons.hits]/[hcons.misses] (registered in {!Cdse_psioa.Hcons}) are
   also worker counters that accumulate through the per-worker probes. *)
let h_width_c = Obs.histogram "measure.frontier.width_compressed"
let c_q_classes = Obs.counter "quotient.classes"
let c_q_merged = Obs.counter "quotient.merged"
let g_q_mass = Obs.gauge "quotient.mass_merged"

(* Subtree-engine instruments. [measure.subtree.roots] counts work units
   claimed off the shared root cursor, [measure.subtree.steals] work units
   claimed from the donation queue by an otherwise-idle worker; their ratio
   is the steal fraction reported in the bench cells. The layer
   instruments ([measure.layers], [measure.frontier.width]) are {e not}
   emitted by the subtree engine — it has no layers. *)
let c_sub_roots = Obs.counter "measure.subtree.roots"
let c_sub_steals = Obs.counter "measure.subtree.steals"

(* Per-layer memo/hcons/choice-cache hit deltas, emitted as a
   [measure.layer.stats] instant for the trace summary. One probe per
   engine run; the deltas are against the previous layer of the same run,
   so [prev] must start from the counters' values {e at probe creation}
   (the run start). Starting from zero — the historical bug — made the
   first layer of every run after the first report the whole process
   history: two engine runs in one process corrupted each other's
   [measure.layer.stats] instants. *)
let layer_stats_probe () =
  let tracked =
    [| ("choice_hit", "measure.choice.hit"); ("choice_miss", "measure.choice.miss");
       ("memo_hit", "psioa.memo.step.hit"); ("memo_miss", "psioa.memo.step.miss");
       ("hcons_hit", "hcons.hits"); ("hcons_miss", "hcons.misses") |]
  in
  let prev = Array.map (fun (_, name) -> Obs.counter_value name) tracked in
  fun ~layer ->
    if Trace.enabled () then begin
      let args = ref [] in
      Array.iteri
        (fun i (label, name) ->
          let v = Obs.counter_value name in
          if v - prev.(i) <> 0 then
            args := (label, string_of_int (v - prev.(i))) :: !args;
          prev.(i) <- v)
        tracked;
      if !args <> [] then
        Trace.instant
          ~args:(fun () -> ("layer", string_of_int layer) :: List.rev !args)
          "measure.layer.stats"
    end

(* ---------------------------------------------------------- shared parts *)

(* [(probability desc, Exec.compare asc)]: a total order on any frontier
   (two distinct cone branches are distinct executions, so [Exec.compare]
   never ties). Budget pruning keeps a prefix of it and the subtree engine
   hands out roots in it. *)
let by_mass (e1, p1) (e2, p2) =
  let c = Rat.compare p2 p1 in
  if c <> 0 then c else Exec.compare e1 e2

(* Keep the [keep] most probable entries of a frontier and return the
   dropped mass. The kept set, the kept order and the dropped-mass sum are
   independent of the input permutation, which is what makes budgeted
   truncation deterministic. Only ever called when a budget is exceeded:
   the unbudgeted path never sorts. *)
let truncate_entries ~keep entries =
  Trace.span ~args:(fun () -> [ ("keep", string_of_int keep) ]) "measure.truncate"
  @@ fun () ->
  let arr = Array.of_list entries in
  Array.stable_sort by_mass arr;
  let kept = ref [] and lost = ref Rat.zero in
  Array.iteri
    (fun i ((_, p) as entry) ->
      if i < keep then kept := entry :: !kept else lost := Rat.add !lost p)
    arr;
  Obs.add c_truncated (Stdlib.max 0 (Array.length arr - keep));
  (List.rev !kept, !lost)

(* Validated scheduler choice, optionally cached. With [~memo:true] and a
   {!Scheduler.is_memoryless} scheduler the validated choice is a function
   of [(length, lstate)] alone, so it is cached per engine instance. The
   subtree engine builds one instance per worker domain, so the hit/miss
   split depends on the domain count but the {e sum} (one lookup per cone
   node) does not. *)
let choice_fn ~memo auto sched =
  if memo && Scheduler.is_memoryless sched then begin
    let tbl = Hashtbl.create 32 in
    fun e ->
      let key = (Exec.length e, Exec.lstate e) in
      match Hashtbl.find_opt tbl key with
      | Some d ->
          Obs.incr c_choice_hit;
          d
      | None ->
          Obs.incr c_choice_miss;
          let d = Scheduler.validate_choice auto sched e in
          Hashtbl.add tbl key d;
          d
  end
  else fun e -> Scheduler.validate_choice auto sched e

(* One engine instance's view of the model: [`Hcons] and [`Quotient] route
   every state through an intern table, [~memo:true] caches signature and
   transition lookups ({!Psioa.memoize}) and validated choices. All of
   these are plain hashtables, so the subtree engine builds one instance
   per worker domain — domain-safe without locks on the hot path.
   Physical uniqueness of interned states then holds per worker;
   cross-worker comparisons fall back to the structural path. *)
let instance ~memo ~compress auto sched =
  let auto =
    match compress with
    | `Off -> auto
    | `Hcons | `Quotient -> Hcons.auto (Hcons.create ()) auto
  in
  let auto = if memo then Psioa.memoize auto else auto in
  (auto, choice_fn ~memo auto sched)

let finish alive finished lost =
  if Obs.enabled () then Obs.set_gauge g_deficit (Rat.to_string lost);
  let d = Dist.make ~compare:Exec.compare (List.rev_append finished alive) in
  if Rat.is_zero lost then `Exact d else `Truncated (d, lost)

(* Quotient merging is sound exactly when the scheduler's future choices
   are a function of [(length, last state)] — the {!Scheduler.is_memoryless}
   promise. With a history-dependent scheduler [`Quotient] silently
   degrades to [`Hcons] (interning only), which is always sound. *)
let quotient_on ~compress sched =
  (match compress with `Quotient -> true | `Off | `Hcons -> false)
  && Scheduler.is_memoryless sched

(* One layer of on-the-fly quotient: pool probabilistically-bisimilar
   frontier entries onto their minimal representative before the next
   expansion. [qmass] accumulates the absorbed mass for the run gauge. *)
let compress_layer ~sig_of ~track ~qmass entries =
  let classes, merged, mass = Quotient.merge_frontier ~sig_of ?track entries in
  if not (Rat.is_zero mass) then qmass := Rat.add !qmass mass;
  if Obs.enabled () then begin
    Obs.add c_q_classes (List.length classes);
    Obs.add c_q_merged merged;
    Obs.observe h_width_c (List.length classes)
  end;
  classes

(* Book a node's halting mass, if any, as a finished execution. *)
let add_halt e h finished =
  if Rat.is_zero h then finished
  else begin
    Obs.incr c_finished;
    (e, h) :: finished
  end

(* One cone node's expansion — the only code that expands a node, shared
   by the layer loop, the seed phase and the subtree workers. Pushes the
   node's children onto [kids] and returns its halting mass. A raise from
   the scheduler or a transition lookup can leave some children pushed;
   the layer loop then aborts the run, and the subtree engine, which
   carries on past failures, passes a fresh ref and commits it only when
   the call returns. A failing node thus contributes neither mass nor
   children and its descendants are never visited: the visited node set —
   and with it the set of {e minimal} failing nodes — is a function of the
   model alone, not of how the tree was partitioned. *)
let expand_node auto choice_of (e, p) kids =
  let choice = choice_of e in
  let q = Exec.lstate e in
  Dist.iter
    (fun act pa ->
      let eta = Psioa.step auto q act in
      let pa = Rat.mul p pa in
      Dist.iter (fun q' pq -> kids := (Exec.extend e act q', Rat.mul pa pq) :: !kids) eta)
    choice;
  if Dist.is_proper choice then Rat.zero else Rat.mul p (Dist.deficit choice)

(* ------------------------------------------------------------ layer loop *)

(* Iteratively expand the cone frontier, one layer at a time. [alive]
   holds executions the scheduler may still extend, [finished] the
   accumulated halting mass. After each expansion the layer post-step
   applies, in this order: the quotient, the width budget, the exec
   budget. A raise from the scheduler surfaces at once, for the first
   failing entry in frontier order. *)
let layer_loop ~memo ~compress ~track ?max_execs ?max_width ?from auto sched ~depth =
  let auto, choice_of = instance ~memo ~compress auto sched in
  let quotient = quotient_on ~compress sched in
  let sig_of = Psioa.signature auto in
  let qmass = ref Rat.zero in
  let layer_stats = layer_stats_probe () in
  let rec go step alive n_finished finished lost =
    if step = depth || alive = [] then (alive, finished, lost)
    else begin
      if Obs.enabled () then begin
        Obs.incr c_layers;
        Obs.observe h_width (List.length alive)
      end;
      let layer_tok = Trace.begin_span "measure.layer" in
      let layer_arg () = [ ("layer", string_of_int step) ] in
      let alive' = ref [] and finished' = ref finished and n_finished' = ref n_finished in
      Trace.span ~args:layer_arg "measure.expand" (fun () ->
          List.iter
            (fun ((e, _) as entry) ->
              let h = expand_node auto choice_of entry alive' in
              if not (Rat.is_zero h) then incr n_finished';
              finished' := add_halt e h !finished')
            alive);
      (* Quotient before the budgets: the frontier the budgets see — and
         prune, by the same total order — is the compressed one, so
         compression reduces truncation instead of competing with it. *)
      let alive' =
        if quotient then
          Trace.span ~args:layer_arg "measure.quotient" (fun () ->
              compress_layer ~sig_of ~track ~qmass !alive')
        else !alive'
      in
      (* Width budget: prune the frontier to its most probable executions,
         accounting the pruned mass as truncation deficit. *)
      let alive', lost =
        match max_width with
        | Some w when List.length alive' > w ->
            let kept, dropped = truncate_entries ~keep:w alive' in
            (kept, Rat.add lost dropped)
        | _ -> (alive', lost)
      in
      (* Support budget: once completed + frontier executions exceed the
         cap, stop expanding — the surviving frontier is reported as
         completed (a partial measure), the rest as deficit. *)
      let stop, alive', lost =
        match max_execs with
        | Some cap when !n_finished' + List.length alive' > cap ->
            let kept, dropped = truncate_entries ~keep:(max 0 (cap - !n_finished')) alive' in
            (true, kept, Rat.add lost dropped)
        | _ -> (false, alive', lost)
      in
      layer_stats ~layer:step;
      Trace.end_span
        ~args:(fun () -> layer_arg () @ [ ("width", string_of_int (List.length alive)) ])
        layer_tok;
      if stop then (alive', !finished', lost)
      else go (step + 1) alive' !n_finished' !finished' lost
    end
  in
  let start_step, start_alive, start_finished = start_frontier auto from in
  let alive, finished, lost =
    go start_step start_alive (List.length start_finished) start_finished Rat.zero
  in
  if quotient && Obs.enabled () then Obs.set_gauge g_q_mass (Rat.to_string !qmass);
  ( finish alive finished lost,
    { f_depth = depth; f_alive = alive; f_finished = finished } )

(* -------------------------------------- barrier-free subtree engine *)

(* Run [job] on [n] workers — the caller is worker 0, [n - 1] domains are
   spawned for this one call — and join them all. If jobs raise, every
   domain is still joined before the exception of the smallest raising
   worker id is re-raised, a choice independent of OS scheduling. *)
let run_workers n job =
  let catch w = match job w with () -> None | exception exn -> Some exn in
  let doms = List.init (n - 1) (fun i -> Domain.spawn (fun () -> catch (i + 1))) in
  let err0 = catch 0 in
  match List.find_map Fun.id (err0 :: List.map Domain.join doms) with
  | Some exn -> raise exn
  | None -> ()

(* The smaller of two recorded failures, by [Exec.compare] on the failing
   execution — a total order on cone nodes, so the surviving failure is
   independent of the worker count, the donation pattern and the OS
   schedule. *)
let min_fail a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (e1, _), Some (e2, _) -> if Exec.compare e1 e2 <= 0 then a else b

(* Barrier-free expansion for unbudgeted, quotient-free multicore runs: no
   layer barriers, no per-layer merge. The coordinator first grows the
   frontier breadth-first ({e seed phase}) until it is wide enough to feed
   every worker several roots, sorts the roots by {!by_mass} — so
   high-mass subtrees are handed out first — and then lets the workers
   loose: each claims one root at a time off an atomic cursor and expands
   the whole subtree depth-first with its own engine instance,
   accumulating local finished/alive lists. Load balancing is cooperative
   work donation: a busy worker that sees idle workers ([hungry] > 0)
   donates the {e shallowest} half of its stack — the largest remaining
   subtrees — to a shared overflow queue; idle workers take the queue's
   contents as their next work unit. The single merge at the end
   concatenates the per-worker lists and normalizes through {!Dist.make}
   (sorted by [Exec.compare], exact rational mass merging) —
   permutation-invariant, hence bit-identical to the layer loop.

   Failures are recorded, not raised, until all surviving work is done;
   the engine then raises the [Exec.compare]-least one ({!min_fail}).

   Termination: [busy] counts workers holding work, guarded by [qm]. A
   worker goes idle only with the cursor exhausted and the queue empty;
   the last one to do so ([busy] = 0) broadcasts completion. A donor is
   busy for the whole donation, so the last idle transition cannot race
   with a concurrent donation. *)
let subtree_exec_dist ~domains ~memo ~compress ?from auto sched ~depth =
  let n_workers = min domains 64 in
  let insts = Array.init n_workers (fun _ -> instance ~memo ~compress auto sched) in
  (* Seed phase: breadth-first on the coordinator (worker 0's instance)
     until the frontier can feed every worker several subtrees. *)
  let seed_target = n_workers * 8 in
  let start_step, start_alive, start_finished = start_frontier auto from in
  let seed_finished = ref start_finished in
  let seed_fail = ref None in
  let seed_layers = ref 0 in
  let rec seed step alive =
    if step = depth || alive = [] || List.length alive >= seed_target then alive
    else begin
      incr seed_layers;
      let auto0, choice0 = insts.(0) in
      let next = ref [] in
      List.iter
        (fun ((e, _) as entry) ->
          let kids = ref !next in
          match expand_node auto0 choice0 entry kids with
          | exception exn -> seed_fail := min_fail !seed_fail (Some (e, exn))
          | h ->
              next := !kids;
              seed_finished := add_halt e h !seed_finished)
        alive;
      seed (step + 1) !next
    end
  in
  let seed_frontier =
    Trace.span
      ~args:(fun () -> [ ("layers", string_of_int !seed_layers) ])
      "measure.seed"
      (fun () -> seed start_step start_alive)
  in
  if seed_frontier = [] || Exec.length (fst (List.hd seed_frontier)) >= depth
  then begin
    (* The cone emptied or bottomed out before growing wide enough — the
       seed phase already did all the work. *)
    (match !seed_fail with Some (_, exn) -> raise exn | None -> ());
    ( finish seed_frontier !seed_finished Rat.zero,
      { f_depth = depth; f_alive = seed_frontier; f_finished = !seed_finished } )
  end
  else begin
    let roots = Array.of_list seed_frontier in
    Array.sort by_mass roots;
    let n_roots = Array.length roots in
    let next = Atomic.make 0 in
    let qm = Mutex.create () in
    let qc = Condition.create () in
    let overflow = ref [] in
    let hungry = Atomic.make 0 in
    let busy = ref n_workers in
    let all_done = ref false in
    let outs = Array.make n_workers [] in
    let finisheds = Array.make n_workers [] in
    let fails = Array.make n_workers None in
    let probes = Array.init n_workers (fun w -> Obs.probe ~worker:w) in
    run_workers n_workers (fun w ->
        let auto, choice_of = insts.(w) in
        let body () =
          let stack = ref [] in
          let out = ref [] and fin = ref [] in
          let am_busy = ref true in
          let donate () =
            if Atomic.get hungry > 0 then
              match !stack with
              | [] | [ _ ] -> ()
              | s ->
                  (* Keep the top (deepest) entries, donate the bottom
                     half — the shallowest nodes, i.e. the largest
                     remaining subtrees. Donation is rare (only while
                     somebody is idle), so the list split is off the
                     common path. *)
                  let n = List.length s in
                  let rec split i l =
                    if i = 0 then ([], l)
                    else
                      match l with
                      | [] -> ([], [])
                      | x :: tl ->
                          let k, d = split (i - 1) tl in
                          (x :: k, d)
                  in
                  let kept, donated = split (n - (n / 2)) s in
                  stack := kept;
                  Mutex.lock qm;
                  overflow := List.rev_append donated !overflow;
                  Condition.broadcast qc;
                  Mutex.unlock qm
          in
          let run_unit src entries =
            let tok = Trace.begin_span "measure.subtree" in
            let nodes = ref 0 in
            stack := entries;
            let running = ref true in
            while !running do
              match !stack with
              | [] -> running := false
              | ((e, _) as entry) :: rest ->
                  stack := rest;
                  incr nodes;
                  if Exec.length e >= depth then out := entry :: !out
                  else begin
                    donate ();
                    let kids = ref !stack in
                    match expand_node auto choice_of entry kids with
                    | exception exn -> fails.(w) <- min_fail fails.(w) (Some (e, exn))
                    | h ->
                        stack := !kids;
                        fin := add_halt e h !fin
                  end
            done;
            Trace.end_span
              ~args:(fun () -> [ ("src", src); ("nodes", string_of_int !nodes) ])
              tok
          in
          let rec claim () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n_roots then begin
              Obs.incr c_sub_roots;
              run_unit (Printf.sprintf "root:%d" i) [ roots.(i) ];
              claim ()
            end
            else idle ()
          and idle () =
            Mutex.lock qm;
            if !overflow <> [] then begin
              let work = !overflow in
              overflow := [];
              Mutex.unlock qm;
              Obs.incr c_sub_steals;
              run_unit "steal" work;
              claim ()
            end
            else begin
              busy := !busy - 1;
              am_busy := false;
              if !busy = 0 then begin
                all_done := true;
                Condition.broadcast qc;
                Mutex.unlock qm
              end
              else begin
                Atomic.incr hungry;
                let tok = Trace.begin_span "measure.steal.idle" in
                let rec wait () =
                  if !all_done then begin
                    Atomic.decr hungry;
                    Mutex.unlock qm;
                    Trace.end_span tok
                  end
                  else if !overflow <> [] then begin
                    let work = !overflow in
                    overflow := [];
                    busy := !busy + 1;
                    am_busy := true;
                    Atomic.decr hungry;
                    Mutex.unlock qm;
                    Trace.end_span tok;
                    Obs.incr c_sub_steals;
                    run_unit "steal" work;
                    claim ()
                  end
                  else begin
                    Condition.wait qc qm;
                    wait ()
                  end
                in
                wait ()
              end
            end
          in
          Fun.protect
            ~finally:(fun () ->
              outs.(w) <- !out;
              finisheds.(w) <- !fin;
              if !am_busy then begin
                (* Exceptional escape past the claim loop (e.g. an
                   allocation failure): keep the termination protocol
                   sound so the surviving workers still finish. *)
                Mutex.lock qm;
                busy := !busy - 1;
                if !busy = 0 then begin
                  all_done := true;
                  Condition.broadcast qc
                end;
                Mutex.unlock qm
              end)
            claim
        in
        Obs.with_worker probes.(w) body);
    Array.iter Obs.join probes;
    (match Array.fold_left min_fail !seed_fail fails with
    | Some (_, exn) -> raise exn
    | None -> ());
    Trace.span "measure.merge" @@ fun () ->
    let alive = Array.fold_left (fun acc o -> List.rev_append o acc) [] outs in
    let finished =
      Array.fold_left (fun acc f -> List.rev_append f acc) !seed_finished finisheds
    in
    ( finish alive finished Rat.zero,
      { f_depth = depth; f_alive = alive; f_finished = finished } )
  end

(* ---------------------------------------------------------- entry points *)

(* The one engine choice, made from the domain count, the budgets and an
   active quotient only: the subtree engine iff the run is multicore,
   unbudgeted and quotient-free, the layer loop otherwise. *)
let run ~memo ~compress ~track ?max_execs ?max_width ?from ~domains auto sched ~depth =
  if domains > 1 && max_execs = None && max_width = None && not (quotient_on ~compress sched)
  then subtree_exec_dist ~domains ~memo ~compress ?from auto sched ~depth
  else layer_loop ~memo ~compress ~track ?max_execs ?max_width ?from auto sched ~depth

let exec_dist_budgeted ?(memo = false) ?max_execs ?max_width ?(domains = 1)
    ?(compress = `Off) ?track auto sched ~depth =
  fst (run ~memo ~compress ~track ?max_execs ?max_width ~domains auto sched ~depth)

(* Resuming is bit-identical to a one-shot run at the larger depth: every
   alive entry of a depth-[d] frontier has length [d], {!Dist.make}
   normalizes away list order, rational mass addition is exact and
   commutative, and the quotient's representative choice is
   [Exec.compare]-minimal per class — none of them can see how the prefix
   layers were computed. *)
let exec_dist_frontier ?(memo = false) ?(domains = 1) ?(compress = `Off) ?from auto
    sched ~depth =
  (match from with
  | Some f when f.f_depth > depth ->
      invalid_arg
        (Printf.sprintf
           "Par_measure.exec_dist_frontier: resume frontier is at depth %d, \
            deeper than the requested depth %d"
           f.f_depth depth)
  | _ -> ());
  match run ~memo ~compress ~track:None ?from ~domains auto sched ~depth with
  | (`Exact d | `Truncated (d, _)), frontier -> (d, frontier)

module For_tests = struct
  let truncate_entries = truncate_entries
  let run_workers = run_workers
end
