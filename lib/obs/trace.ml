(* Span tracer. Mirrors the Obs discipline: one global on/off flag guards
   every mutation, and events go through [Obs.record], so worker domains
   write only into the probe installed in their own domain-local storage
   and the coordinating domain folds it in when the workers join. See
   trace.mli for the user contract. *)

module Json = Cdse_util.Json

type args = (string * string) list

type event = Obs.event = {
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

(* --------------------------------------------------------- admin *)

let clear () = Obs.clear_events ()

let start ?(capacity = default_capacity) () =
  Obs.clear_events ~capacity:(max 16 capacity) ();
  t0 := Unix.gettimeofday ();
  on := true

let stop () = on := false

let dropped () = Obs.dropped_events ()

(* ----------------------------------------------------------- recording *)

let force_args = function None -> [] | Some f -> f ()

let instant ?args name =
  if !on then
    Obs.record
      { ev_name = name; ev_dom = Obs.worker (); ev_ts = now_us (); ev_dur = 0.;
        ev_instant = true; ev_args = force_args args }

type tok = { tk_name : string; tk_dom : int; tk_ts : float; tk_live : bool }

let null_tok = { tk_name = ""; tk_dom = 0; tk_ts = 0.; tk_live = false }

let begin_span name =
  if not !on then null_tok
  else { tk_name = name; tk_dom = Obs.worker (); tk_ts = now_us (); tk_live = true }

let end_span ?args tok =
  if tok.tk_live && !on then
    Obs.record
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
    (Obs.events ())

(* -------------------------------------------------------- chrome export *)

(* Timestamps keep three decimals (ns); each event ends its own line, so
   an export can be read and grepped line by line. *)
let to_chrome () =
  let evs = events () in
  let doms = List.sort_uniq Int.compare (List.map (fun e -> e.ev_dom) evs) in
  let int i = Json.Num (float_of_int i) in
  let us t = Json.Raw (Printf.sprintf "%.3f" t) in
  let line v = Json.Raw (Json.to_string v ^ "\n") in
  let thread_name d =
    Json.Obj
      [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M"); ("pid", int 0);
        ("tid", int d);
        ( "args",
          Json.Obj
            [ ( "name",
                Json.Str
                  (if d = 0 then "domain 0 (coordinator)"
                   else Printf.sprintf "domain %d" d) ) ] ) ]
  in
  let event e =
    let phase =
      if e.ev_instant then [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
      else [ ("ph", Json.Str "X") ]
    in
    let dur = if e.ev_instant then [] else [ ("dur", us e.ev_dur) ] in
    Json.Obj
      ((("name", Json.Str e.ev_name) :: ("cat", Json.Str "cdse") :: phase)
      @ [ ("pid", int 0); ("tid", int e.ev_dom); ("ts", us e.ev_ts) ]
      @ dur
      @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args)) ])
  in
  Json.to_string
    (Json.Obj
       [ ( "traceEvents",
           Json.List (List.map line (List.map thread_name doms @ List.map event evs)) );
         ("displayTimeUnit", Json.Str "ms") ])
  ^ "\n"

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
    sm_dropped = dropped ();
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
