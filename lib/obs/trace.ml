(* Span tracer. Mirrors the Obs discipline: one global on/off flag guards
   every mutation. See trace.mli for the user contract. *)

module Json = Cdse_util.Json

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

(* The event store, newest first, holding at most [!cap] events. *)
let default_capacity = 65536
let cap = ref default_capacity
let store : event list ref = ref []
let n_store = ref 0
let n_dropped = ref 0

let record ev =
  if !n_store >= !cap then incr n_dropped
  else begin
    store := ev :: !store;
    incr n_store
  end

(* --------------------------------------------------------- admin *)

let clear () =
  store := [];
  n_store := 0;
  n_dropped := 0

let start ?(capacity = default_capacity) () =
  clear ();
  cap := max 16 capacity;
  t0 := Unix.gettimeofday ();
  on := true

let stop () = on := false

let dropped () = !n_dropped

(* ----------------------------------------------------------- recording *)

let force_args = function None -> [] | Some f -> f ()

let instant ?args name =
  if !on then
    record
      { ev_name = name; ev_dom = 0; ev_ts = now_us (); ev_dur = 0.; ev_instant = true;
        ev_args = force_args args }

type tok = { tk_name : string; tk_ts : float; tk_live : bool }

let null_tok = { tk_name = ""; tk_ts = 0.; tk_live = false }

let begin_span name =
  if not !on then null_tok else { tk_name = name; tk_ts = now_us (); tk_live = true }

let end_span ?args tok =
  if tok.tk_live && !on then
    record
      { ev_name = tok.tk_name; ev_dom = 0; ev_ts = tok.tk_ts;
        ev_dur = Float.max 0. (now_us () -. tok.tk_ts); ev_instant = false;
        ev_args = force_args args }

let span ?args name f =
  if not !on then f ()
  else begin
    let tok = begin_span name in
    Fun.protect ~finally:(fun () -> end_span ?args tok) f
  end

let events () = List.sort (fun e1 e2 -> Float.compare e1.ev_ts e2.ev_ts) !store

(* -------------------------------------------------------- chrome export *)

(* Timestamps keep three decimals (ns); each event ends its own line, so
   an export can be read and grepped line by line. *)
let to_chrome () =
  let evs = events () in
  let int i = Json.Num (float_of_int i) in
  let us t = Json.Raw (Printf.sprintf "%.3f" t) in
  let line v = Json.Raw (Json.to_string v ^ "\n") in
  let thread_name =
    Json.Obj
      [ ("name", Json.Str "thread_name"); ("ph", Json.Str "M"); ("pid", int 0);
        ("tid", int 0); ("args", Json.Obj [ ("name", Json.Str "cdse") ]) ]
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
           Json.List (List.map line (thread_name :: List.map event evs)) );
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

type summary = {
  sm_spans : int;
  sm_instants : int;
  sm_dropped : int;
  sm_total_us : float;
  sm_layers : layer_row list;
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
      | "measure.layer.stats" ->
          update l (fun r -> { r with lr_stats = List.remove_assoc "layer" e.ev_args @ r.lr_stats })
      | _ -> ())
    evs;
  let layer_rows =
    Hashtbl.fold (fun _ r acc -> r :: acc) layers []
    |> List.filter (fun r -> r.lr_layer >= 0)
    |> List.sort (fun r1 r2 -> Int.compare r1.lr_layer r2.lr_layer)
  in
  { sm_spans = List.length spans;
    sm_instants = List.length instants;
    sm_dropped = dropped ();
    sm_total_us = total_us;
    sm_layers = layer_rows }

let pp_summary fmt s =
  let open Format in
  fprintf fmt "@[<v>";
  fprintf fmt "%d spans, %d instants, %.1f us traced, %d dropped@," s.sm_spans
    s.sm_instants s.sm_total_us s.sm_dropped;
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
  fprintf fmt "@]"
