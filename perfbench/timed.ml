(* The timed runs: three operation sets sent to the cdse_serve daemon and
   the in-process E18 verdict loop.

   A run sends its workload's fixed set of operations in rounds until the
   time is up; the first round always completes. The run is cut into
   stretches of about 0.2 s, each pinned to the next CPU (pin.ml) with the
   speed reference (speed.ml) timed at either end, so every operation's
   CPU time is kept both raw and at nominal speed. The checks run between
   operations, outside each operation's clock. *)

open Cdse
module Json = Cdse_serve.Json
module P = Cdse_serve.Protocol
module Codec = Cdse_serve.Codec

type outcome = {
  attempted : int;
  failed : int;
  raw : float list array;  (** CPU seconds, per operation in the set *)
  scaled : float list array;  (** the same at nominal speed *)
  references : float list;  (** CPU seconds, every time the speed reference took *)
  rounds : int;  (** rounds begun *)
  setups : float list;  (** CPU seconds at nominal speed, one per set-up *)
  rss_mb : float;
}

(* Wall seconds of operations between two speed references. *)
let stretch = 0.2

(* Runs operations in rounds of [size] until [seconds] have passed; the
   first round always completes. The run is cut into stretches of about
   [stretch] seconds, each with the processes [pids] pinned to the next
   CPU and the speed reference timed at either end. [send ~round i] runs
   the [i]-th operation of [round] and returns its index in the set, its
   CPU seconds and whether it passed its checks. *)
let rounds ~seconds ~size ~pids ~send =
  let raw = Array.make size [] and scaled = Array.make size [] and references = ref [] in
  let reference () =
    let r = Speed.reference () in
    references := r :: !references;
    r
  in
  let turn = ref 0 and before = ref None and start = ref 0.0 and pending = ref [] in
  let open_stretch () =
    Pin.turn !turn pids;
    incr turn;
    before := Some (reference ());
    start := Unix.gettimeofday ()
  in
  let close_stretch before =
    let after = reference () in
    List.iter (fun (j, c) -> scaled.(j) <- Speed.scale ~before ~after c :: scaled.(j)) !pending;
    pending := []
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let attempted = ref 0 and failed = ref 0 and round = ref 0 and i = ref 0 in
  while !round = 0 || Unix.gettimeofday () < deadline do
    if !before = None then open_stretch ();
    let j, cost, ok = send ~round:!round !i in
    raw.(j) <- cost :: raw.(j);
    pending := (j, cost) :: !pending;
    incr attempted;
    if not ok then incr failed;
    incr i;
    if !i = size then begin
      i := 0;
      incr round
    end;
    match !before with
    | Some b when Unix.gettimeofday () -. !start >= stretch ->
        close_stretch b;
        before := None
    | _ -> ()
  done;
  Option.iter close_stretch !before;
  {
    attempted = !attempted;
    failed = !failed;
    raw;
    scaled;
    references = !references;
    rounds = (if !i > 0 then !round + 1 else !round);
    setups = [];
    rss_mb = 0.0;
  }

(* [n] set-ups, each on the next CPU between two speed references, at
   nominal speed. [setup i] returns its CPU seconds. *)
let setups n setup =
  List.init n (fun i ->
      Pin.turn i [ "self" ];
      let before = Speed.reference () in
      let t = setup i in
      Speed.scale ~before ~after:(Speed.reference ()) t)

(* --------------------------------------------------------------- serve *)

let ok_prefix id = Printf.sprintf "{\"id\":%d,\"ok\":true,\"result\":" id

(* A successful reply's text after its id, or [None] for an error. *)
let body ~id line =
  let p = ok_prefix id in
  let n = String.length p in
  if String.length line >= n && String.equal (String.sub line 0 n) p then
    Some (String.sub line n (String.length line - n))
  else None

(* The reply body the daemon must send for a measure request, rendered
   the way [Server] renders it, from an in-process [Measure.exec_dist]. *)
let expected_measure ~cached (q : P.query) =
  let auto = P.build_model q.P.q_model in
  let dist = Measure.exec_dist auto (P.build_sched auto q.P.q_sched) ~depth:q.P.q_depth in
  let num i = Json.Num (float_of_int i) in
  Json.to_string
    (Json.Obj
       [
         ("depth", num q.P.q_depth);
         ("tag", Json.Str "exact");
         ("lost", Json.Str "0");
         ("dist", Json.Raw (Json.to_string (Codec.dist_to_json dist)));
         ("cached", Json.Bool cached);
         ("resumed_from", Json.Null);
       ])
  ^ "}"

let expected_reach (q : P.query) state =
  let auto = P.build_model q.P.q_model in
  let target = Value.of_bits state in
  Measure.reach_prob auto (P.build_sched auto q.P.q_sched) ~depth:q.P.q_depth
    ~pred:(Value.equal target)

let reach_prob body =
  match Json.member "result" (Json.parse ("{\"result\":" ^ body)) with
  | Some r -> (
      match Json.member "prob" r with
      | Some (Json.Str p) -> ( try Some (Rat.of_string p) with _ -> None)
      | _ -> None)
  | None -> None
  | exception _ -> None

(* What a workload's replies must satisfy: [proper body] on each
   operation's first reply body, as it arrives; [agrees ~corrupt r body]
   on the same body, against the in-process result, after the clock
   stops. Every later round must repeat an operation's first reply.
   [corrupt] plants a wrong expectation, to show the checks bite. *)
type checks = {
  proper : string -> bool;
  agrees : corrupt:bool -> Gen.req -> string -> bool;
}

let measure_checks ~cached =
  {
    proper = (fun _ -> true);
    agrees =
      (fun ~corrupt r body ->
        let want = expected_measure ~cached r.Gen.query in
        (* A corrupted expectation keeps its length. *)
        String.equal (if corrupt then String.map (function '1' -> '0' | c -> c) want else want) body);
  }

(* Every probability must be an exact rational in [0, 1]. *)
let reach_checks =
  {
    proper =
      (fun body ->
        match reach_prob body with
        | Some p -> Rat.sign p >= 0 && Rat.compare p Rat.one <= 0
        | None -> false);
    agrees =
      (fun ~corrupt r body ->
        match (reach_prob body, r.Gen.state) with
        | Some p, Some state ->
            let want = expected_reach r.Gen.query state in
            Rat.equal p (if corrupt then Rat.add want Rat.one else want)
        | _ -> false);
  }

type serve = {
  domains : int;  (** the daemon's default domains per query *)
  warmup : Gen.req list;  (** sent at set-up, after the first pong *)
  ops : Gen.ops;
  checks : checks;
}

let serve_cold ~seed =
  { domains = 1; warmup = Gen.cold_warmup; ops = Gen.cold ~seed; checks = measure_checks ~cached:false }

(* The set-up requests every key once, so every timed request hits. *)
let serve_warm ~seed =
  {
    domains = 1;
    warmup = Array.to_list Gen.warm_keys;
    ops = Gen.warm ~seed;
    checks = measure_checks ~cached:true;
  }

let serve_reach ~seed = { domains = 1; warmup = []; ops = Gen.reach_ops ~seed; checks = reach_checks }

(* Spawn, wait for the first pong, send the warm-up: one set-up, and the
   CPU seconds it cost this process and the daemon. The daemon starts on
   the CPU this process is pinned to. *)
let setup_daemon cfg =
  let c0 = Speed.cpu 0 in
  let d = Wire.spawn ~args:[ "--domains"; string_of_int cfg.domains; "--workers"; "1" ] in
  let c = Wire.connect d.Wire.socket in
  Wire.ping c;
  List.iter (fun r -> ignore (Wire.rpc c (Gen.line ~id:0 r))) cfg.warmup;
  (Speed.cpu 0 -. c0 +. Speed.cpu d.Wire.pid, d, c)

let setup_repeats = 9

let run_serve cfg ~seconds ~corrupt =
  (* Every set-up but the last is shut down; the last one serves the run. *)
  let live = ref None in
  let setups =
    setups setup_repeats (fun i ->
        let t, d, c = setup_daemon cfg in
        if i < setup_repeats - 1 then Wire.shutdown d c else live := Some (d, c);
        t)
  in
  let d, c = Option.get !live in
  let ops = cfg.ops in
  (* A request's id is its operation's index in the set, so every reply to
     an operation must equal its first reply byte for byte: a memcmp. *)
  let first = Array.make ops.Gen.size None in
  let o =
    rounds ~seconds ~size:ops.Gen.size ~pids:[ "self"; string_of_int d.Wire.pid ]
      ~send:(fun ~round i ->
        let j, r = ops.Gen.op ~round i in
        let reply, cost = Wire.costed_rpc c ~pid:d.Wire.pid (Gen.line ~id:j r) in
        let ok =
          match first.(j) with
          | Some (_, _, line) -> String.equal line reply
          | None -> (
              match body ~id:j reply with
              | Some b when cfg.checks.proper b ->
                  first.(j) <- Some (r, b, reply);
                  true
              | _ -> false)
        in
        (j, cost, ok))
  in
  let rss_mb = Wire.peak_rss_mb (string_of_int d.Wire.pid) in
  Wire.shutdown d c;
  let wrong =
    Array.fold_left
      (fun n f ->
        match f with
        | Some (r, b, _) when cfg.checks.agrees ~corrupt r b -> n
        | _ -> n + 1)
      0 first
  in
  { o with failed = min o.attempted (o.failed + wrong); setups; rss_mb }

(* ------------------------------------------------------------- verdict *)

(* One E18 point; true when both its verdicts match the E18 table. *)
let point ~corrupt k =
  List.for_all
    (fun system ->
      let holds, worst = E18.expected system k in
      let want = ((if corrupt && k = 0 then not holds else holds), worst) in
      E18.matches want (E18.verdict system k))
    [ E18.Otp; E18.Committee ]

let setup_rounds = 5

(* The operations are the four E18 points, one per compromise budget;
   each round visits them in its own seeded order. Set-up is one untimed
   round of the four points. *)
let run_verdict ~seed ~seconds ~corrupt =
  let setups =
    setups setup_rounds (fun _ ->
        let c0 = Speed.cpu 0 in
        List.iter (fun k -> ignore (point ~corrupt:false k)) E18.budgets;
        Speed.cpu 0 -. c0)
  in
  let order = E18.points ~seed in
  let o =
    rounds ~seconds ~size:(List.length E18.budgets) ~pids:[ "self" ] ~send:(fun ~round:_ _ ->
        let k = order () in
        let c0 = Speed.cpu 0 in
        let ok = point ~corrupt k in
        (k, Speed.cpu 0 -. c0, ok))
  in
  { o with setups; rss_mb = Wire.peak_rss_mb "self" }
