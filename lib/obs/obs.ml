(* Global instrument registry. Mutations branch on [on] first so that
   disabled-mode cost is a load and a conditional per site; instruments are
   registered once at module-init time by the code they instrument, so the
   registry hashtables are cold after startup.

   Counters and trace events are the two things recorded from worker
   domains (the measure engine's multicore path): a worker installs a
   [probe] in its domain-local storage, counter increments and events are
   diverted into it, and the coordinating domain folds it into the global
   records once the workers join. Histograms and gauges stay
   coordinator-only. Registration takes a mutex (cold path: instruments
   are registered at module init, plus the occasional construction-time
   lookup), so concurrent registration from two domains cannot corrupt the
   registry tables. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

let registry_mutex = Mutex.create ()

let registered tbl name make =
  Mutex.lock registry_mutex;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.add tbl name v;
        v
  in
  Mutex.unlock registry_mutex;
  v

(* Counters *)

type counter = { mutable c : int; id : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

(* Dense counter ids back the probes' delta arrays; [by_id] resolves a
   delta slot back to its counter at join time. Both are only touched under
   [registry_mutex]. *)
let by_id : counter array ref = ref [||]
let n_ids = ref 0

let counter name =
  registered counters name (fun () ->
      let c = { c = 0; id = !n_ids } in
      n_ids := !n_ids + 1;
      if !n_ids > Array.length !by_id then begin
        let bigger = Array.make (max 16 (2 * !n_ids)) c in
        Array.blit !by_id 0 bigger 0 (Array.length !by_id);
        by_id := bigger
      end;
      !by_id.(c.id) <- c;
      c)

(* Worker probes: counter deltas indexed by counter id plus the worker's
   trace events, installed under the one DLS key of the process (DLS slots
   are never reclaimed, so a key per probe would leak). The event list
   grows only with the events actually recorded, capped by [event_cap]. *)

type event = {
  ev_name : string;
  ev_dom : int;
  ev_ts : float;
  ev_dur : float;
  ev_instant : bool;
  ev_args : (string * string) list;
}

type probe = {
  p_worker : int;
  mutable p_deltas : int array;
  mutable p_events : event list;  (* newest first *)
  mutable p_n_events : int;
  mutable p_dropped : int;
}

let probe_key : probe option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let probe ~worker =
  { p_worker = worker; p_deltas = [||]; p_events = []; p_n_events = 0; p_dropped = 0 }

let with_worker p f =
  let prev = Domain.DLS.get probe_key in
  Domain.DLS.set probe_key (Some p);
  Fun.protect ~finally:(fun () -> Domain.DLS.set probe_key prev) f

let bump p id k =
  let n = Array.length p.p_deltas in
  if id >= n then begin
    let bigger = Array.make (max 16 (max (id + 1) (2 * n))) 0 in
    Array.blit p.p_deltas 0 bigger 0 n;
    p.p_deltas <- bigger
  end;
  p.p_deltas.(id) <- p.p_deltas.(id) + k

let incr c =
  if !on then
    match Domain.DLS.get probe_key with
    | None -> c.c <- c.c + 1
    | Some p -> bump p c.id 1

let add c k =
  if !on then
    match Domain.DLS.get probe_key with
    | None -> c.c <- c.c + k
    | Some p -> bump p c.id k

let count c = c.c

let counter_value name =
  match Hashtbl.find_opt counters name with Some c -> c.c | None -> 0

(* The trace event store: coordinator-only, kept newest first. *)

let event_cap = ref 65536
let store : event list ref = ref []
let n_store = ref 0
let n_dropped = ref 0

let store_event ev =
  if !n_store >= !event_cap then Stdlib.incr n_dropped
  else begin
    store := ev :: !store;
    Stdlib.incr n_store
  end

let record ev =
  match Domain.DLS.get probe_key with
  | None -> store_event ev
  | Some p ->
      if p.p_n_events >= !event_cap then p.p_dropped <- p.p_dropped + 1
      else begin
        p.p_events <- ev :: p.p_events;
        p.p_n_events <- p.p_n_events + 1
      end

let worker () = match Domain.DLS.get probe_key with Some p -> p.p_worker | None -> 0

let clear_events ?capacity () =
  Option.iter (fun c -> event_cap := c) capacity;
  store := [];
  n_store := 0;
  n_dropped := 0

let events () = !store
let dropped_events () = !n_dropped

let join p =
  Array.iteri
    (fun id d ->
      if d <> 0 then begin
        let c = !by_id.(id) in
        c.c <- c.c + d;
        p.p_deltas.(id) <- 0
      end)
    p.p_deltas;
  List.iter store_event (List.rev p.p_events);
  n_dropped := !n_dropped + p.p_dropped;
  p.p_events <- [];
  p.p_n_events <- 0;
  p.p_dropped <- 0

(* Histograms: bucket 0 holds v <= 0, bucket i >= 1 holds 2^(i-1) <= v < 2^i.
   63 buckets cover every positive int. *)

type histogram = {
  buckets : int array;
  mutable h_n : int;
  mutable h_total : int;
  mutable h_hi : int;
  mutable h_lo : int;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram name =
  registered histograms name (fun () ->
      { buckets = Array.make 64 0; h_n = 0; h_total = 0; h_hi = 0; h_lo = 0 })

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
    go 0 v

let bucket_upper i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  if !on then begin
    let i = bucket_of v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    if h.h_n = 0 || v < h.h_lo then h.h_lo <- v;
    h.h_n <- h.h_n + 1;
    h.h_total <- h.h_total + v;
    if v > h.h_hi then h.h_hi <- v
  end

let hist_count h = h.h_n
let hist_sum h = h.h_total
let hist_max h = h.h_hi
let hist_min h = h.h_lo

(* Gauges *)

type gauge = { mutable g : string option }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8

let gauge name = registered gauges name (fun () -> { g = None })

let set_gauge g v = if !on then g.g <- Some v

let gauge_value name =
  match Hashtbl.find_opt gauges name with Some g -> g.g | None -> None

(* Snapshot / reset / report *)

type histogram_stats = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

(* Smallest recorded bucket upper bound by which at least ceil(p * count)
   observations have fallen; the exact max for p = 1. An upper bound on the
   true percentile — exact to the power-of-two bucket resolution. *)
let hist_percentile st p =
  if st.h_count = 0 then 0
  else begin
    let need =
      let t = int_of_float (ceil (p *. float_of_int st.h_count)) in
      max 1 (min st.h_count t)
    in
    let rec go acc = function
      | [] -> st.h_max
      | (ub, n) :: rest -> if acc + n >= need then min ub st.h_max else go (acc + n) rest
    in
    go 0 st.h_buckets
  end

type snapshot = {
  s_counters : (string * int) list;
  s_gauges : (string * string) list;
  s_histograms : (string * histogram_stats) list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_stats h =
  let bs = ref [] in
  for i = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then bs := (bucket_upper i, h.buckets.(i)) :: !bs
  done;
  { h_count = h.h_n; h_sum = h.h_total; h_min = h.h_lo; h_max = h.h_hi;
    h_buckets = !bs }

let snapshot () =
  {
    s_counters = sorted_bindings counters (fun c -> c.c);
    s_gauges =
      sorted_bindings gauges (fun g -> g.g)
      |> List.filter_map (fun (k, v) ->
             match v with Some v -> Some (k, v) | None -> None);
    s_histograms = sorted_bindings histograms hist_stats;
  }

let reset () =
  Hashtbl.iter (fun _ c -> c.c <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g <- None) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 (Array.length h.buckets) 0;
      h.h_n <- 0;
      h.h_total <- 0;
      h.h_hi <- 0;
      h.h_lo <- 0)
    histograms

let with_stats f =
  let was = !on in
  reset ();
  on := true;
  Fun.protect
    ~finally:(fun () -> on := was)
    (fun () ->
      let r = f () in
      (r, snapshot ()))

let report fmt s =
  let open Format in
  fprintf fmt "@[<v>";
  if s.s_counters <> [] then begin
    fprintf fmt "counters:@,";
    List.iter (fun (k, v) -> fprintf fmt "  %-32s %d@," k v) s.s_counters
  end;
  if s.s_gauges <> [] then begin
    fprintf fmt "gauges:@,";
    List.iter (fun (k, v) -> fprintf fmt "  %-32s %s@," k v) s.s_gauges
  end;
  if s.s_histograms <> [] then begin
    fprintf fmt "histograms:@,";
    List.iter
      (fun (k, h) ->
        let mean =
          if h.h_count = 0 then 0.
          else float_of_int h.h_sum /. float_of_int h.h_count
        in
        fprintf fmt
          "  %-32s count=%d min=%d max=%d mean=%.1f p50<=%d p90<=%d p99<=%d@,"
          k h.h_count h.h_min h.h_max mean (hist_percentile h 0.5)
          (hist_percentile h 0.9) (hist_percentile h 0.99))
      s.s_histograms
  end;
  fprintf fmt "@]"
