(* Global instrument registry. Mutations branch on [on] first so that
   disabled-mode cost is a load and a conditional per site; instruments are
   registered once at module-init time by the code they instrument, so the
   registry hashtables are cold after startup. Registration takes a mutex
   (cold path: module init, plus the occasional construction-time lookup),
   so the daemon's threads cannot corrupt the registry tables by
   registering concurrently. *)

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

type counter = { mutable c : int }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name = registered counters name (fun () -> { c = 0 })

let incr c = if !on then c.c <- c.c + 1
let add c k = if !on then c.c <- c.c + k

let count c = c.c

let counter_value name =
  match Hashtbl.find_opt counters name with Some c -> c.c | None -> 0

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
