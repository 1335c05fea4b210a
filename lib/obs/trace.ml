(* Span tracer. Mirrors the Obs discipline: one global on/off flag guards
   every mutation, worker domains write only into a ring buffer installed
   in their own domain-local storage, and the coordinating domain folds
   those rings into the global store once the workers have joined. See
   trace.mli for the user contract. *)

type args = (string * string) list

type event = {
  ev_name : string;
  ev_dom : int;
  ev_ts : float;
  ev_dur : float;
  ev_instant : bool;
  ev_args : args;
}

let on = ref false
let enabled () = !on

(* Clock origin (seconds, Unix.gettimeofday) set by [start]. *)
let t0 = ref 0.0
let now_us () = (Unix.gettimeofday () -. !t0) *. 1e6

let default_capacity = 65536
let cap = ref default_capacity

(* Global store: coordinator-only (the no-buffer recording path and
   [drain] both run on the coordinating domain). Kept as a reversed list;
   [events] sorts by timestamp anyway. *)
let store : event list ref = ref []
let n_store = ref 0
let dropped_count = ref 0

let push_global ev =
  if !n_store >= !cap then incr dropped_count
  else begin
    store := ev :: !store;
    incr n_store
  end

(* ----------------------------------------------------- per-domain rings *)

type buffer = {
  mutable buf_dom : int;
  ring : event array;
  mutable buf_len : int;
  mutable buf_dropped : int;
}

let null_event =
  { ev_name = ""; ev_dom = 0; ev_ts = 0.; ev_dur = 0.; ev_instant = true; ev_args = [] }

let buffer ~dom =
  { buf_dom = dom; ring = Array.make !cap null_event; buf_len = 0; buf_dropped = 0 }

(* Freelist of retired ring buffers. A traced engine run used to allocate a
   [!cap]-sized event array per worker per run (~0.5 MB each at the default
   capacity) — bench sweeps and the churn CLI churned megabytes per call.
   [acquire_buffer] reuses a retired ring of the current capacity when one
   is available (resetting its cursor, drop count and owning domain — stale
   events beyond [buf_len] are never read) and allocates only otherwise;
   buffers whose capacity no longer matches [!cap] (a [start ~capacity] in
   between) are discarded rather than kept forever. The freelist is
   mutex-guarded: acquisition happens per engine run, never on the
   recording hot path. *)
let buf_pool : buffer list ref = ref []
let buf_pool_mutex = Mutex.create ()

let acquire_buffer ~dom =
  Mutex.lock buf_pool_mutex;
  let matching, _stale = List.partition (fun b -> Array.length b.ring = !cap) !buf_pool in
  let reused, rest =
    match matching with b :: rest -> (Some b, rest) | [] -> (None, [])
  in
  buf_pool := rest;
  Mutex.unlock buf_pool_mutex;
  match reused with
  | Some b ->
      b.buf_dom <- dom;
      b.buf_len <- 0;
      b.buf_dropped <- 0;
      b
  | None -> buffer ~dom

let release_buffer b =
  Mutex.lock buf_pool_mutex;
  buf_pool := b :: !buf_pool;
  Mutex.unlock buf_pool_mutex

let buf_key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_buffer b f =
  let prev = Domain.DLS.get buf_key in
  Domain.DLS.set buf_key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set buf_key prev) f

let drain b =
  for i = 0 to b.buf_len - 1 do
    push_global b.ring.(i)
  done;
  dropped_count := !dropped_count + b.buf_dropped;
  b.buf_len <- 0;
  b.buf_dropped <- 0

let dom_of () =
  match Domain.DLS.get buf_key with Some b -> b.buf_dom | None -> 0

let push ev =
  match Domain.DLS.get buf_key with
  | Some b ->
      if b.buf_len >= Array.length b.ring then b.buf_dropped <- b.buf_dropped + 1
      else begin
        b.ring.(b.buf_len) <- ev;
        b.buf_len <- b.buf_len + 1
      end
  | None -> push_global ev

(* --------------------------------------------------------- admin *)

let clear () =
  store := [];
  n_store := 0;
  dropped_count := 0

let start ?(capacity = default_capacity) () =
  clear ();
  cap := max 16 capacity;
  t0 := Unix.gettimeofday ();
  on := true

let stop () = on := false

let dropped () = !dropped_count

(* ----------------------------------------------------------- recording *)

let force_args = function None -> [] | Some f -> f ()

let instant ?args name =
  if !on then
    push
      { ev_name = name; ev_dom = dom_of (); ev_ts = now_us (); ev_dur = 0.;
        ev_instant = true; ev_args = force_args args }

type tok = { tk_name : string; tk_dom : int; tk_ts : float; tk_live : bool }

let null_tok = { tk_name = ""; tk_dom = 0; tk_ts = 0.; tk_live = false }

let begin_span name =
  if not !on then null_tok
  else { tk_name = name; tk_dom = dom_of (); tk_ts = now_us (); tk_live = true }

let end_span ?args tok =
  if tok.tk_live && !on then
    push
      { ev_name = tok.tk_name; ev_dom = tok.tk_dom; ev_ts = tok.tk_ts;
        ev_dur = Float.max 0. (now_us () -. tok.tk_ts); ev_instant = false;
        ev_args = force_args args }

let span ?args name f =
  if not !on then f ()
  else begin
    let tok = begin_span name in
    Fun.protect ~finally:(fun () -> end_span ?args tok) f
  end

let events () =
  List.sort
    (fun e1 e2 ->
      let c = Float.compare e1.ev_ts e2.ev_ts in
      if c <> 0 then c else Int.compare e1.ev_dom e2.ev_dom)
    !store

(* -------------------------------------------------------- chrome export *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let args_json = function
  | [] -> "{}"
  | args ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
             args)
      ^ "}"

let to_chrome () =
  let evs = events () in
  let doms =
    List.sort_uniq Int.compare (List.map (fun e -> e.ev_dom) evs)
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let first = ref true in
  let emit s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b s
  in
  List.iter
    (fun d ->
      emit
        (Printf.sprintf
           "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": %d, \
            \"args\": {\"name\": \"%s\"}}"
           d
           (if d = 0 then "domain 0 (coordinator)" else Printf.sprintf "domain %d" d)))
    doms;
  List.iter
    (fun e ->
      emit
        (if e.ev_instant then
           Printf.sprintf
             "  {\"name\": \"%s\", \"cat\": \"cdse\", \"ph\": \"i\", \"s\": \"t\", \
              \"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"args\": %s}"
             (json_escape e.ev_name) e.ev_dom e.ev_ts (args_json e.ev_args)
         else
           Printf.sprintf
             "  {\"name\": \"%s\", \"cat\": \"cdse\", \"ph\": \"X\", \"pid\": 0, \
              \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": %s}"
             (json_escape e.ev_name) e.ev_dom e.ev_ts e.ev_dur (args_json e.ev_args)))
    evs;
  Buffer.add_string b "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents b

let write_chrome path =
  let oc = open_out path in
  output_string oc (to_chrome ());
  close_out oc

(* -------------------------------------------------------------- summary *)

type layer_row = {
  lr_layer : int;
  lr_width : int;
  lr_total_us : float;
  lr_expand_us : float;
  lr_quotient_us : float;
  lr_stats : args;
}

type worker_row = {
  wr_dom : int;
  wr_busy_us : float;
  wr_idle_us : float;
  wr_chunks : int;
}

type summary = {
  sm_spans : int;
  sm_instants : int;
  sm_dropped : int;
  sm_total_us : float;
  sm_idle_frac : float;
  sm_imbalance : float;
  sm_layers : layer_row list;
  sm_workers : worker_row list;
  sm_chunk_us : float list;
}

let arg_int e key = Option.bind (List.assoc_opt key e.ev_args) int_of_string_opt

let layer_of e = Option.value ~default:(-1) (arg_int e "layer")

let summary () =
  let evs = events () in
  let spans = List.filter (fun e -> not e.ev_instant) evs in
  let instants = List.filter (fun e -> e.ev_instant) evs in
  let total_us =
    match evs with
    | [] -> 0.
    | first :: _ ->
        let last_end =
          List.fold_left (fun acc e -> Float.max acc (e.ev_ts +. e.ev_dur)) 0. evs
        in
        Float.max 0. (last_end -. first.ev_ts)
  in
  (* Per-layer attribution, keyed by the "layer" argument. *)
  let layers : (int, layer_row) Hashtbl.t = Hashtbl.create 16 in
  let layer_row l =
    match Hashtbl.find_opt layers l with
    | Some r -> r
    | None ->
        let r =
          { lr_layer = l; lr_width = 0; lr_total_us = 0.; lr_expand_us = 0.;
            lr_quotient_us = 0.; lr_stats = [] }
        in
        Hashtbl.replace layers l r;
        r
  in
  let update l f = Hashtbl.replace layers l (f (layer_row l)) in
  let workers : (int, worker_row) Hashtbl.t = Hashtbl.create 8 in
  let update_worker d f =
    let r =
      match Hashtbl.find_opt workers d with
      | Some r -> r
      | None -> { wr_dom = d; wr_busy_us = 0.; wr_idle_us = 0.; wr_chunks = 0 }
    in
    Hashtbl.replace workers d (f r)
  in
  let chunk_durs = ref [] in
  List.iter
    (fun e ->
      let l = layer_of e in
      match e.ev_name with
      | "measure.layer" ->
          update l (fun r ->
              { r with
                lr_total_us = r.lr_total_us +. e.ev_dur;
                lr_width = (match arg_int e "width" with Some w -> r.lr_width + w | None -> r.lr_width) })
      | "measure.expand" -> update l (fun r -> { r with lr_expand_us = r.lr_expand_us +. e.ev_dur })
      | "quotient.merge" | "measure.quotient" ->
          update l (fun r -> { r with lr_quotient_us = r.lr_quotient_us +. e.ev_dur })
      | "measure.subtree" ->
          (* A claimed work unit of the subtree engine: a whole subtree,
             attributed to the worker that expanded it. *)
          chunk_durs := e.ev_dur :: !chunk_durs;
          update_worker e.ev_dom (fun r ->
              { r with wr_busy_us = r.wr_busy_us +. e.ev_dur; wr_chunks = r.wr_chunks + 1 })
      | "measure.steal.idle" ->
          update_worker e.ev_dom (fun r -> { r with wr_idle_us = r.wr_idle_us +. e.ev_dur })
      | "measure.layer.stats" ->
          update l (fun r -> { r with lr_stats = List.remove_assoc "layer" e.ev_args @ r.lr_stats })
      | _ -> ())
    evs;
  let layer_rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) layers []
    |> List.filter (fun r -> r.lr_layer >= 0)
    |> List.sort (fun r1 r2 -> Int.compare r1.lr_layer r2.lr_layer)
  in
  let worker_rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) workers []
    |> List.sort (fun r1 r2 -> Int.compare r1.wr_dom r2.wr_dom)
  in
  let sum f rows = List.fold_left (fun acc r -> acc +. f r) 0. rows in
  let busy_total = sum (fun w -> w.wr_busy_us) worker_rows in
  let idle_total = sum (fun w -> w.wr_idle_us) worker_rows in
  let idle_frac =
    if busy_total +. idle_total <= 0. then 0. else idle_total /. (busy_total +. idle_total)
  in
  let imbalance =
    let busies =
      List.filter_map
        (fun w -> if w.wr_chunks > 0 then Some w.wr_busy_us else None)
        worker_rows
    in
    match busies with
    | [] -> 1.
    | _ ->
        let n = float_of_int (List.length busies) in
        let mean = List.fold_left ( +. ) 0. busies /. n in
        if mean <= 0. then 1.
        else Float.max 1. (List.fold_left Float.max 0. busies /. mean)
  in
  { sm_spans = List.length spans;
    sm_instants = List.length instants;
    sm_dropped = !dropped_count;
    sm_total_us = total_us;
    sm_idle_frac = idle_frac;
    sm_imbalance = imbalance;
    sm_layers = layer_rows;
    sm_workers = worker_rows;
    sm_chunk_us = List.sort Float.compare !chunk_durs }

let percentile sorted p =
  match sorted with
  | [] -> 0.
  | l ->
      let n = List.length l in
      let idx = min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1) in
      List.nth l (max 0 idx)

let pp_summary fmt s =
  let open Format in
  fprintf fmt "@[<v>";
  fprintf fmt "%d spans, %d instants, %.1f us traced, %d dropped@," s.sm_spans
    s.sm_instants s.sm_total_us s.sm_dropped;
  fprintf fmt "idle_frac                %.3f  (worker time waiting for stealable work)@,"
    s.sm_idle_frac;
  fprintf fmt "imbalance_max_over_mean  %.3f  (per-worker busy time, max / mean)@,"
    s.sm_imbalance;
  if s.sm_layers <> [] then begin
    fprintf fmt "per layer (us):@,";
    fprintf fmt "  %5s %8s %10s %10s %10s@," "layer" "width" "total" "expand"
      "quotient";
    List.iter
      (fun r ->
        fprintf fmt "  %5d %8d %10.1f %10.1f %10.1f" r.lr_layer r.lr_width
          r.lr_total_us r.lr_expand_us r.lr_quotient_us;
        (match r.lr_stats with
        | [] -> ()
        | st ->
            fprintf fmt "  %s"
              (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) st)));
        fprintf fmt "@,")
      s.sm_layers
  end;
  if s.sm_workers <> [] then begin
    fprintf fmt "per worker (us):@,";
    fprintf fmt "  %5s %10s %10s %8s@," "dom" "busy" "idle" "subtrees";
    List.iter
      (fun w ->
        fprintf fmt "  %5d %10.1f %10.1f %8d@," w.wr_dom w.wr_busy_us w.wr_idle_us
          w.wr_chunks)
      s.sm_workers
  end;
  (match s.sm_chunk_us with
  | [] -> ()
  | durs ->
      let n = List.length durs in
      let mean = List.fold_left ( +. ) 0. durs /. float_of_int n in
      fprintf fmt
        "subtree durations (us): n=%d min=%.1f mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f@,"
        n (List.hd durs) mean (percentile durs 0.5) (percentile durs 0.9)
        (percentile durs 0.99)
        (List.nth durs (n - 1)));
  fprintf fmt "@]"
