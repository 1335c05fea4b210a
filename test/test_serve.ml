(* Protocol-level tests for the cdse_serve daemon.

   Every test starts a fresh in-process server on its own temp socket and
   talks to it through the blocking test client
   (test/support/serve_client.ml), which shares no connection code with
   the server. The load-bearing checks are differential: whatever the
   daemon replies — cold, cached, or resumed from a shallower frontier —
   must decode to a distribution bit-identical (items, order, rationals,
   truncation tag and deficit) to an in-process [Measure.exec_dist] and,
   for the deepening test, to the naive oracle. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched
open Cdse_testkit
module Json = Cdse_serve.Json
module Codec = Cdse_serve.Codec
module Protocol = Cdse_serve.Protocol
module Engine = Cdse_serve.Engine
module Server = Cdse_serve.Server
module Client = Serve_client

let qtest = QCheck_alcotest.to_alcotest

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "cdse-t%d-%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?workers ?cache_cap ?max_queue f =
  let socket = fresh_socket () in
  let server =
    Server.start ?workers ?cache_cap ?max_queue ~socket ()
  in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server socket)

let with_client ?workers ?cache_cap ?max_queue f =
  with_server ?workers ?cache_cap ?max_queue (fun server socket ->
      let c = Client.connect socket in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f server c))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Request builders *)

let model_coin = Json.Obj [ ("kind", Json.Str "coin") ]

let model_walk span =
  Json.Obj [ ("kind", Json.Str "random_walk"); ("span", Json.Num (float_of_int span)) ]

let model_rauto seed =
  Json.Obj
    [
      ("kind", Json.Str "random_auto");
      ("seed", Json.Num (float_of_int seed));
      ("states", Json.Num 5.);
      ("actions", Json.Num 3.);
    ]

let sched_json ?fault_budget ?bound kind =
  Json.Obj
    (("kind", Json.Str kind)
    :: (match fault_budget with
       | Some k -> [ ("fault_budget", Json.Num (float_of_int k)) ]
       | None -> [])
    @ match bound with
      | Some b -> [ ("bound", Json.Num (float_of_int b)) ]
      | None -> [])

let measure_fields ?(compress = "off") ?max_execs ?max_width ~model ~sched
    ~depth () =
  [
    ("op", Json.Str "measure");
    ("model", model);
    ("sched", sched);
    ("depth", Json.Num (float_of_int depth));
    ("compress", Json.Str compress);
  ]
  @ (match max_execs with
    | Some n -> [ ("max_execs", Json.Num (float_of_int n)) ]
    | None -> [])
  @
  match max_width with
  | Some n -> [ ("max_width", Json.Num (float_of_int n)) ]
  | None -> []

(* Reply dissection *)

let expect_ok (r : Client.reply) =
  if not r.Client.r_ok then
    Alcotest.failf "expected ok reply, got error: %s" (Json.to_string r.Client.r_body);
  r.Client.r_body

let expect_error (r : Client.reply) =
  if r.Client.r_ok then
    Alcotest.failf "expected error reply, got: %s" (Json.to_string r.Client.r_body);
  r.Client.r_body

let dist_of_result body = Codec.dist_of_json (Client.field "dist" body)

let items_identical d1 d2 =
  let i1 = Dist.items d1 and i2 = Dist.items d2 in
  List.length i1 = List.length i2
  && List.for_all2
       (fun (e, p) (e', p') -> Exec.compare e e' = 0 && Rat.equal p p')
       i1 i2

let check_identical what served expected =
  Alcotest.(check bool)
    (what ^ ": served distribution bit-identical to in-process")
    true
    (items_identical served expected
    && Rat.equal (Dist.deficit served) (Dist.deficit expected))

(* ------------------------------------------------------------ round trips *)

let test_ping_pong () =
  with_client (fun _ c ->
      let body = expect_ok (Client.ping c) in
      Alcotest.(check string) "pong" "pong" (Client.str body))

let test_measure_roundtrip () =
  with_client (fun _ c ->
      let r =
        expect_ok
          (Client.request c
             (measure_fields ~model:model_coin ~sched:(sched_json "uniform")
                ~depth:3 ()))
      in
      Alcotest.(check string) "exact tag" "exact" (Client.str (Client.field "tag" r));
      Alcotest.(check string) "no loss" "0" (Client.str (Client.field "lost" r));
      let auto = Cdse_gen.Workloads.coin ~p:Rat.half "c" in
      check_identical "coin depth 3" (dist_of_result r)
        (Measure.exec_dist auto (Scheduler.uniform auto) ~depth:3))

let test_reach_roundtrip () =
  with_client (fun _ c ->
      let auto = Cdse_gen.Workloads.coin ~p:Rat.half "c" in
      let sched = Scheduler.uniform auto in
      let dist = Measure.exec_dist auto sched ~depth:3 in
      (* Target: the last state of the first completed execution. *)
      let target = Exec.lstate (fst (List.hd (Dist.items dist))) in
      let expected =
        Dist.fold
          (fun acc e p ->
            if List.exists (Value.equal target) (Exec.states e) then
              Rat.add acc p
            else acc)
          Rat.zero dist
      in
      let r =
        expect_ok
          (Client.request c
             (( "state",
                Json.Str (Cdse_util.Bits.to_string (Value.to_bits target)) )
             :: ("op", Json.Str "reach")
             :: List.remove_assoc "op"
                  (measure_fields ~model:model_coin
                     ~sched:(sched_json "uniform") ~depth:3 ())))
      in
      Alcotest.(check string)
        "reach probability exact" (Rat.to_string expected)
        (Client.str (Client.field "prob" r)))

let test_emulate_roundtrip () =
  with_client (fun _ c ->
      let r =
        expect_ok
          (Client.request c
             [
               ("op", Json.Str "emulate");
               ("protocol", Json.Str "channel");
               ("broken", Json.Bool false);
             ])
      in
      (match Client.field "holds" r with
      | Json.Bool true -> ()
      | j -> Alcotest.failf "secure channel should emulate: %s" (Json.to_string j));
      Alcotest.(check string) "zero distance" "0"
        (Client.str (Client.field "worst" r));
      let r =
        expect_ok
          (Client.request c
             [
               ("op", Json.Str "emulate");
               ("protocol", Json.Str "channel");
               ("broken", Json.Bool true);
             ])
      in
      match Client.field "holds" r with
      | Json.Bool false -> ()
      | j -> Alcotest.failf "leaky channel should not emulate: %s" (Json.to_string j))

(* ------------------------------------------------------- malformed input *)

let test_malformed_requests () =
  with_client (fun _ c ->
      let error_field fields =
        let e = expect_error (Client.request c fields) in
        ( Client.str (Client.field "kind" e),
          Client.str (Client.field "field" e) )
      in
      (* Unparseable JSON: the id is unrecoverable, the reply says so. *)
      Client.send_line c "this is not json";
      let r = Client.reply_of_line (Client.recv_line c) in
      Alcotest.(check bool) "garbage: error reply" false r.Client.r_ok;
      Alcotest.(check bool) "garbage: id is null" true (r.Client.r_id = None);
      Alcotest.(check string) "garbage: protocol kind" "protocol"
        (Client.str (Client.field "kind" r.Client.r_body));
      (* Structured failures name the offending field. *)
      Alcotest.(check (pair string string))
        "unknown op" ("protocol", "op")
        (error_field [ ("op", Json.Str "frobnicate") ]);
      Alcotest.(check (pair string string))
        "missing model" ("protocol", "model")
        (error_field [ ("op", Json.Str "measure") ]);
      Alcotest.(check (pair string string))
        "bad model kind" ("protocol", "model.kind")
        (error_field
           [
             ("op", Json.Str "measure");
             ("model", Json.Obj [ ("kind", Json.Str "nope") ]);
           ]);
      Alcotest.(check (pair string string))
        "bad depth" ("protocol", "depth")
        (error_field
           [
             ("op", Json.Str "measure");
             ("model", model_coin);
             ("sched", sched_json "uniform");
             ("depth", Json.Str "three");
           ]);
      (* Numbers past 2^53 are not integers, and must not wrap into one. *)
      let measure ?(model = model_coin) ?(sched = sched_json "uniform")
          ?(depth = Json.Num 3.) extra =
        [ ("op", Json.Str "measure"); ("model", model); ("sched", sched); ("depth", depth) ]
        @ extra
      in
      Alcotest.(check (pair string string))
        "huge depth" ("protocol", "depth")
        (error_field (measure ~depth:(Json.Num 1e300) []));
      Alcotest.(check (pair string string))
        "huge max_execs" ("protocol", "max_execs")
        (error_field (measure [ ("max_execs", Json.Num 1e300) ]));
      Alcotest.(check (pair string string))
        "retired compression level" ("protocol", "compress")
        (error_field (measure [ ("compress", Json.Str "hcons") ]));
      (* Out-of-range fields are refused by name, not left to the
         generators or the engine to fail on. *)
      List.iter
        (fun (field, extra) ->
          Alcotest.(check (pair string string))
            ("negative " ^ field) ("protocol", field)
            (error_field (measure extra)))
        [ ("max_width", [ ("max_width", Json.Num (-1.)) ]);
          ("max_execs", [ ("max_execs", Json.Num (-5.)) ]) ];
      List.iter
        (fun (field, model) ->
          Alcotest.(check (pair string string))
            ("out-of-range " ^ field) ("protocol", field)
            (error_field (measure ~model:(Json.Obj model) [])))
        [ ("model.members", [ ("kind", Json.Str "random_pca"); ("seed", Json.Num 1.); ("members", Json.Num 0.) ]);
          ("model.members", [ ("kind", Json.Str "random_pca"); ("seed", Json.Num 1.); ("members", Json.Num (-3.)) ]);
          ("model.actions", [ ("kind", Json.Str "random_auto"); ("seed", Json.Num 1.); ("actions", Json.Num 0.) ]);
          ("model.branching", [ ("kind", Json.Str "random_auto"); ("seed", Json.Num 1.); ("branching", Json.Num 0.) ]);
          ("model.states", [ ("kind", Json.Str "random_auto"); ("seed", Json.Num 1.); ("states", Json.Num (-2.)) ]);
          ("model.validators", [ ("kind", Json.Str "committee"); ("validators", Json.Num (-1.)) ]);
          ("model.blocks", [ ("kind", Json.Str "committee"); ("blocks", Json.Num (-1.)) ]);
          ("model.p", [ ("kind", Json.Str "coin"); ("p", Json.Str "3/2") ]);
          ("model.p", [ ("kind", Json.Str "coin"); ("p", Json.Str "-1/2") ]) ];
      Client.send_line c {|{"id":5e18,"op":"ping"}|};
      let r = Client.reply_of_line (Client.recv_line c) in
      Alcotest.(check (pair (option int) string))
        "huge id: rejected, not wrapped" (None, "id")
        (r.Client.r_id, Client.str (Client.field "field" r.Client.r_body));
      (* Fields of the nested model and sched objects are named in full. *)
      Alcotest.(check (pair string string))
        "bad model field" ("protocol", "model.span")
        (error_field
           (measure
              ~model:(Json.Obj [ ("kind", Json.Str "random_walk"); ("span", Json.Bool true) ])
              []));
      Alcotest.(check (pair string string))
        "bad sched field" ("protocol", "sched.bound")
        (error_field
           (measure
              ~sched:(Json.Obj [ ("kind", Json.Str "uniform"); ("bound", Json.Num 1e300) ])
              []));
      (* A reach state must decode to a value: "0" runs out of bits and
         "0000" has trailing bits ("000" is the unit value). *)
      List.iter
        (fun state ->
          Alcotest.(check (pair string string))
            ("undecodable reach state " ^ state) ("protocol", "state")
            (error_field
               ([ ("op", Json.Str "reach"); ("state", Json.Str state) ]
               @ List.remove_assoc "op"
                   (measure_fields ~model:model_coin ~sched:(sched_json "uniform") ~depth:3 ()))))
        [ "0"; "0000" ];
      (* The connection survives every rejected request. *)
      let body = expect_ok (Client.ping c) in
      Alcotest.(check string) "connection still usable" "pong" (Client.str body))

(* A request line is capped at 1 MiB. A client that never sends '\n'
   gets a protocol error naming the request and has its connection
   closed, instead of growing the daemon's memory without limit; other
   connections are still served. *)
let test_oversized_line () =
  with_server (fun _ socket ->
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let n = 2 lsl 20 in
          (* The daemon closes once it has read past the cap, which can cut
             the write short. *)
          (try ignore (Unix.write c.Client.fd (Bytes.make n 'x') 0 n)
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          let r = Client.reply_of_line (Client.recv_line c) in
          Alcotest.(check bool) "oversized line: error reply" false r.Client.r_ok;
          Alcotest.(check (pair string string))
            "oversized line: protocol error on the request" ("protocol", "request")
            ( Client.str (Client.field "kind" r.Client.r_body),
              Client.str (Client.field "field" r.Client.r_body) ));
      let c = Client.connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Alcotest.(check string) "a fresh connection still gets pong" "pong"
            (Client.str (expect_ok (Client.ping c)))))

(* A reach reply carries no tag or lost mass, so a budget on it would
   return a silent lower bound: the daemon refuses it with a protocol
   error naming the budget field, and the connection stays usable. *)
let test_budgeted_reach_rejected () =
  with_client (fun _ c ->
      let state =
        Cdse_util.Bits.to_string
          (Value.to_bits (Psioa.start (Cdse_gen.Workloads.coin ~p:Rat.half "c")))
      in
      List.iter
        (fun field ->
          let e =
            expect_error
              (Client.request c
                 ([ ("op", Json.Str "reach"); ("state", Json.Str state); (field, Json.Num 3.) ]
                 @ List.remove_assoc "op"
                     (measure_fields ~model:model_coin ~sched:(sched_json "uniform")
                        ~depth:3 ())))
          in
          Alcotest.(check (pair string string))
            ("reach with " ^ field) ("protocol", field)
            (Client.str (Client.field "kind" e), Client.str (Client.field "field" e)))
        [ "max_execs"; "max_width" ];
      Alcotest.(check string) "connection still usable" "pong"
        (Client.str (expect_ok (Client.ping c))))

(* Older clients sent per-request "memo" and "domains" fields. They are
   ignored: the reply is byte-identical to the same line without them,
   each sent cold to a fresh daemon. *)
let test_stale_engine_fields_ignored () =
  let reply_line fields =
    with_client (fun _ c ->
        Client.send_line c (Json.to_string (Json.Obj (("id", Json.Num 1.) :: fields)));
        Client.recv_line c)
  in
  let fields =
    measure_fields ~model:(model_rauto 5) ~sched:(sched_json "uniform") ~depth:4 ()
  in
  Alcotest.(check string) "memo and domains change no reply byte"
    (reply_line fields)
    (reply_line (fields @ [ ("memo", Json.Bool true); ("domains", Json.Num 4.) ]))

(* Hostile input: whatever the bytes, [parse_request] fails only with
   [Protocol_error] — never another exception, a crash or a hang. Lines
   reach the parser only up to the daemon's request-line cap. *)
let line_cap = 1 lsl 20

(* The reach line's state is the encoding of the coin's [heads] state. *)
let valid_lines =
  [
    {|{"id":1,"op":"ping"}|};
    {|{"id":2,"op":"measure","model":{"kind":"random_auto","seed":3,"states":5},"sched":{"kind":"uniform","bound":4},"depth":4,"compress":"quotient","max_execs":10}|};
    {|{"id":3,"op":"reach","model":{"kind":"coin","p":"1/3"},"sched":{"kind":"round_robin"},"depth":3,"state":"110001100110100001100101011000010110010001110011000"}|};
    {|{"id":4,"op":"emulate","protocol":"coin-flip","broken":true}|};
  ]

let nested ~opener n =
  let b = Buffer.create (n * String.length opener) in
  for _ = 1 to n do
    Buffer.add_string b opener
  done;
  Buffer.contents b

let openers = [ "["; {|{"a":|} ]

let rejected line =
  match Protocol.parse_request line with
  | _ -> false
  | exception Protocol.Protocol_error _ -> true

let hostile_line =
  let json_char =
    QCheck.Gen.oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '1'; '-'; 'e'; ' '; 'a'; 't' ]
  in
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:char (0 -- 300);
        string_size ~gen:json_char (0 -- 300);
        (let* line = oneofl valid_lines in
         let* k = 0 -- (String.length line - 1) in
         return (String.sub line 0 k));
        (let* opener = oneofl openers in
         let* scale = 0 -- 20 in
         let* n = 1 -- (1 lsl scale) in
         return (nested ~opener (min n (line_cap / String.length opener))));
      ])

let print_line s =
  if String.length s <= 80 then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 80) (String.length s)

let prop_parse_hostile =
  QCheck.Test.make ~count:300 ~name:"parse_request: hostile input raises only Protocol_error"
    (QCheck.make ~print:print_line hostile_line)
    rejected

(* The same lines sent to an in-process daemon, every case over one
   connection ([test_socket_hostile] opens it): each line gets a [protocol]
   error reply, and then the connection still answers [ping]. A line
   holding '\n' reaches the daemon as two lines, and a blank one gets no
   reply, so both are left out. *)
let hostile_client = ref None

let prop_socket_hostile =
  let sendable line = (not (String.contains line '\n')) && String.trim line <> "" in
  QCheck.Test.make ~count:100 ~name:"daemon: hostile lines get protocol errors, connection survives"
    (QCheck.make ~print:(QCheck.Print.list print_line)
       QCheck.Gen.(list_size (1 -- 10) hostile_line))
    (fun lines ->
      let c = Option.get !hostile_client in
      List.for_all
        (fun line ->
          Client.send_line c line;
          let r = Client.reply_of_line (Client.recv_line c) in
          (not r.Client.r_ok) && Client.str (Client.field "kind" r.Client.r_body) = "protocol")
        (List.filter sendable lines)
      && Client.str (expect_ok (Client.ping c)) = "pong")

let test_socket_hostile =
  let name, speed, run = qtest prop_socket_hostile in
  Alcotest.test_case name speed (fun () ->
      with_client (fun _ c ->
          hostile_client := Some c;
          Fun.protect ~finally:(fun () -> hostile_client := None) run))

(* The fixed extremes of the same property: every proper prefix of each
   valid line, and nesting that fills the whole line cap, parsed on the
   main thread and on a systhread (the daemon parses on its reader
   threads). *)
let test_parse_prefixes_and_deep_nesting () =
  List.iter
    (fun line ->
      Alcotest.(check bool) ("parses: " ^ line) false (rejected line);
      for k = 0 to String.length line - 1 do
        if not (rejected (String.sub line 0 k)) then
          Alcotest.failf "prefix of length %d of %s was accepted" k line
      done)
    valid_lines;
  List.iter
    (fun opener ->
      let line = nested ~opener (line_cap / String.length opener) in
      Alcotest.(check bool) (opener ^ " nested to the cap, main thread") true (rejected line);
      let on_thread = ref false in
      Thread.join (Thread.create (fun () -> on_thread := rejected line) ());
      Alcotest.(check bool) (opener ^ " nested to the cap, systhread") true !on_thread)
    openers

let test_exception_printers () =
  let rendered_p =
    Printexc.to_string
      (Server.Protocol_error
         { id = Some 7; field = "model.kind"; msg = "unknown model kind" })
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "Protocol_error printer mentions %S" sub)
        true
        (contains ~sub rendered_p))
    [ "Protocol_error"; "id 7"; "model.kind"; "unknown model kind"; "resend" ];
  let rendered_o =
    Printexc.to_string
      (Server.Overloaded { id = Some 42; queue_depth = 64; cap = 64 })
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "Overloaded printer mentions %S" sub)
        true
        (contains ~sub rendered_o))
    [ "Overloaded"; "id 42"; "64"; "--max-queue" ]

(* ------------------------------------------------------------- cache hits *)

let test_cache_hit_bit_identity () =
  with_client (fun _ c ->
      let fields =
        measure_fields ~model:(model_rauto 1234) ~sched:(sched_json "uniform")
          ~depth:4 ()
      in
      let cold = expect_ok (Client.request c fields) in
      let warm = expect_ok (Client.request c fields) in
      Alcotest.(check bool) "cold is uncached" false
        (Client.field "cached" cold = Json.Bool true);
      Alcotest.(check bool) "warm is cached" true
        (Client.field "cached" warm = Json.Bool true);
      (* The cached reply must be byte-for-byte the cold one (same dist,
         same tag, same deficit). *)
      Alcotest.(check string)
        "identical rendering"
        (Json.to_string (Client.field "dist" cold))
        (Json.to_string (Client.field "dist" warm));
      Alcotest.(check string) "identical tag"
        (Client.str (Client.field "tag" cold))
        (Client.str (Client.field "tag" warm));
      let rng = Rng.make 1234 in
      let auto =
        Cdse_gen.Random_auto.make ~rng ~name:"ca" ~n_states:5 ~n_actions:3 ()
      in
      check_identical "warm vs in-process" (dist_of_result warm)
        (Measure.exec_dist auto (Scheduler.uniform auto) ~depth:4))

let test_budgeted_cache_hit () =
  with_client (fun _ c ->
      let fields =
        measure_fields ~max_execs:3 ~model:(model_rauto 99)
          ~sched:(sched_json "uniform") ~depth:4 ()
      in
      let cold = expect_ok (Client.request c fields) in
      let warm = expect_ok (Client.request c fields) in
      let rng = Rng.make 99 in
      let auto =
        Cdse_gen.Random_auto.make ~rng ~name:"ca" ~n_states:5 ~n_actions:3 ()
      in
      let tag, lost =
        match
          Measure.exec_dist_budgeted ~max_execs:3 auto (Scheduler.uniform auto)
            ~depth:4
        with
        | `Exact _ -> ("exact", Rat.zero)
        | `Truncated (_, l) -> ("truncated", l)
      in
      List.iter
        (fun (name, reply) ->
          Alcotest.(check string)
            (name ^ ": tag matches in-process")
            tag
            (Client.str (Client.field "tag" reply));
          Alcotest.(check string)
            (name ^ ": lost mass matches in-process")
            (Rat.to_string lost)
            (Client.str (Client.field "lost" reply)))
        [ ("cold", cold); ("warm", warm) ];
      Alcotest.(check bool) "warm is cached" true
        (Client.field "cached" warm = Json.Bool true);
      Alcotest.(check string) "identical rendering"
        (Json.to_string (Client.field "dist" cold))
        (Json.to_string (Client.field "dist" warm)))

(* ---------------------------------------------------- incremental deepening *)

(* Serve depth d, then d + k on the same line: the daemon must report the
   resume and the result must be bit-identical to a one-shot in-process
   measure AND to the naive oracle at d + k. *)
let test_incremental_deepening () =
  with_client (fun _ c ->
      List.iter
        (fun (name, model_json, build) ->
          let fields depth =
            measure_fields ~model:model_json ~sched:(sched_json "uniform")
              ~depth ()
          in
          let shallow = expect_ok (Client.request c (fields 3)) in
          Alcotest.(check bool)
            (name ^ ": shallow run is from scratch")
            true
            (Client.field "resumed_from" shallow = Json.Null);
          let deep = expect_ok (Client.request c (fields 6)) in
          Alcotest.(check int)
            (name ^ ": deep run resumed from the cached depth-3 frontier")
            3
            (Client.int (Client.field "resumed_from" deep));
          let auto = build () in
          let sched = Scheduler.uniform auto in
          check_identical
            (name ^ ": resumed vs one-shot")
            (dist_of_result deep)
            (Measure.exec_dist auto sched ~depth:6);
          check_identical
            (name ^ ": resumed vs oracle")
            (dist_of_result deep)
            (Oracle.exec_dist auto sched ~depth:6))
        [
          ( "walk",
            model_walk 4,
            fun () -> Cdse_gen.Workloads.random_walk ~span:4 "w" );
          ( "rauto",
            model_rauto 77,
            fun () ->
              Cdse_gen.Random_auto.make ~rng:(Rng.make 77) ~name:"ca"
                ~n_states:5 ~n_actions:3 () );
        ])

(* ------------------------------------------------------- cache soundness *)

(* qcheck property against the socket-free Engine with a tiny cache: any
   interleaving of models, depths and compression modes — with LRU
   eviction constantly kicking entries and frontiers out — must answer
   every query bit-identically to a fresh in-process measure. This is the
   property that rules out stale entries, cross-model or cross-compress
   key collisions, and unsound frontier reuse. *)
let prop_cache_sound =
  let open QCheck in
  let query_of (m, s, depth, comp) : Protocol.query =
    let q_model : Protocol.model =
      match m mod 4 with
      | 0 -> Protocol.Coin { p = Rat.half }
      | 1 -> Protocol.Random_walk { span = 3 }
      | 2 -> Protocol.Counter { bound = 3 }
      | _ ->
          Protocol.Random_auto
            { seed = 7 * (m mod 2); states = 4; actions = 3; branching = 2 }
    in
    {
      Protocol.q_model;
      q_sched =
        {
          Protocol.s_kind =
            (match s mod 3 with
            | 0 -> Protocol.Uniform
            | 1 -> Protocol.First_enabled
            | _ -> Protocol.Round_robin);
          s_fault_budget = None;
          s_bound = None;
        };
      q_depth = depth mod 5;
      q_compress = (if comp mod 2 = 0 then `Off else `Quotient);
      q_max_execs = None;
      q_max_width = None;
    }
  in
  Test.make ~count:30 ~name:"serve cache: any interleaving answers fresh"
    (list_of_size Gen.(int_range 1 12)
       (quad (int_bound 7) (int_bound 5) (int_bound 6) (int_bound 1)))
    (fun ops ->
      let engine = Engine.create ~cache_cap:4 () in
      List.for_all
        (fun op ->
          let q = query_of op in
          let served = (Engine.measure engine q).Engine.m_dist in
          let auto = Protocol.build_model q.Protocol.q_model in
          let sched = Protocol.build_sched auto q.Protocol.q_sched in
          let fresh =
            Measure.exec_dist ~compress:q.Protocol.q_compress auto sched
              ~depth:q.Protocol.q_depth
          in
          items_identical served fresh)
        ops)

(* ------------------------------------------------------------- engine *)

(* A spec whose elaboration raises must not leave the model registry
   locked: a good spec then still resolves from another thread (bounded
   wait, so a leaked lock fails the test instead of hanging it) and from
   the same thread. *)
let test_model_registry_survives_failure () =
  let engine = Engine.create () in
  let bad = Protocol.Random_auto { seed = 1; states = 6; actions = 0; branching = 2 } in
  (match Engine.model engine bad with
  | _ -> Alcotest.fail "a random_auto spec with no actions should not elaborate"
  | exception Invalid_argument _ -> ());
  let good = Protocol.Coin { p = Rat.half } in
  let resolved = Atomic.make false in
  let t = Thread.create (fun () -> ignore (Engine.model engine good); Atomic.set resolved true) () in
  let rec wait polls =
    Atomic.get resolved || (polls > 0 && (Thread.delay 0.01; wait (polls - 1)))
  in
  Alcotest.(check bool) "second thread resolves a good spec within 5 s" true (wait 500);
  Thread.join t;
  ignore (Engine.model engine good)

(* In-process, a budgeted reach is refused as well, on both reach paths
   (folded over the cached measure, and the quotient's direct run). *)
let test_engine_reach_refuses_budget () =
  let engine = Engine.create () in
  let state = Value.to_bits (Psioa.start (Cdse_gen.Workloads.coin ~p:Rat.half "c")) in
  List.iter
    (fun (q_compress, q_max_execs, q_max_width) ->
      let q =
        {
          Protocol.q_model = Protocol.Coin { p = Rat.half };
          q_sched = { Protocol.s_kind = Protocol.Uniform; s_fault_budget = None; s_bound = None };
          q_depth = 3;
          q_compress;
          q_max_execs;
          q_max_width;
        }
      in
      match Engine.reach engine q ~state with
      | _ -> Alcotest.fail "a budgeted reach must raise"
      | exception Invalid_argument _ -> ())
    [ (`Off, Some 1, None); (`Off, None, Some 1); (`Quotient, Some 1, Some 1) ]

(* [~domains] survives only for callers that still pass it: 1 builds an
   engine, anything else is refused. *)
let test_engine_domains_only_one () =
  ignore (Engine.create ~domains:1 ());
  match Engine.create ~domains:2 () with
  | _ -> Alcotest.fail "~domains:2 accepted"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------- concurrency *)

(* Four clients fire the same query mix in different orders against a
   2-worker server; every reply must be bit-identical to the in-process
   reference regardless of which requests hit cache, resumed, or raced.
   One model comes at several scheduler bounds and depths, measures and
   reaches, so both workers read and fill its shared memo at once. *)
let test_concurrent_clients () =
  with_server ~workers:2 (fun _ socket ->
      let rauto () =
        Cdse_gen.Random_auto.make ~rng:(Rng.make 5) ~name:"ca" ~n_states:5 ~n_actions:3 ()
      in
      let walk () = Cdse_gen.Workloads.random_walk ~span:4 "w" in
      let coin () = Cdse_gen.Workloads.coin ~p:Rat.half "c" in
      (* A [Compose.parallel]: workers step one shared composite. *)
      let faulty () = Cdse_gen.Workloads.faulty_channel ~seed:4 in
      let model_faulty = Json.Obj [ ("kind", Json.Str "faulty_channel"); ("seed", Json.Num 4.) ] in
      let u = ("uniform", Scheduler.uniform) and f = ("first_enabled", Scheduler.first_enabled) in
      (* (model, its in-process twin, scheduler, bound, depth, reach?) *)
      let specs =
        [
          (model_rauto 5, rauto, u, None, 3, false);
          (model_walk 4, walk, u, None, 4, false);
          (model_faulty, faulty, u, None, 6, false);
          (model_rauto 5, rauto, u, None, 5, false);
          (model_coin, coin, u, None, 3, false);
          (model_faulty, faulty, f, None, 7, false);
          (model_rauto 5, rauto, u, None, 3, false);
          (model_rauto 5, rauto, u, Some 4, 4, false);
          (model_faulty, faulty, u, Some 5, 7, true);
          (model_rauto 5, rauto, u, Some 2, 5, true);
          (model_rauto 5, rauto, u, Some 6, 6, true);
          (model_faulty, faulty, f, None, 6, true);
          (model_rauto 5, rauto, u, Some 3, 6, false);
          (model_rauto 5, rauto, u, Some 7, 5, true);
          (model_rauto 5, rauto, u, None, 4, true);
        ]
      in
      (* Each line's fields and its expected reply: the dist of a fresh
         in-process measure, or for a reach the naive sum over it, at the
         last state of its middle execution. *)
      let line (m, mk, (kind, sched_of), bound, depth, reach) =
        let auto = mk () in
        let sched = sched_of auto in
        let sched = match bound with Some b -> Scheduler.bounded b sched | None -> sched in
        let d = Measure.exec_dist auto sched ~depth in
        let fields = measure_fields ~model:m ~sched:(sched_json ?bound kind) ~depth () in
        if not reach then (fields, `Dist d)
        else
          let support = Dist.support d in
          let target = Exec.lstate (List.nth support (List.length support / 2)) in
          let prob =
            Dist.fold
              (fun acc e p ->
                if List.exists (Value.equal target) (Exec.states e) then Rat.add acc p else acc)
              Rat.zero d
          in
          ( ("state", Json.Str (Cdse_util.Bits.to_string (Value.to_bits target)))
            :: ("op", Json.Str "reach") :: List.remove_assoc "op" fields,
            `Prob (Rat.to_string prob) )
      in
      let lines = List.map line specs in
      let failures = Atomic.make 0 in
      let client_thread rot =
        let c = Client.connect socket in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
            let order =
              (* Rotate the query list so clients interleave differently. *)
              let rec rot_n n l =
                if n = 0 then l
                else match l with [] -> [] | x :: tl -> rot_n (n - 1) (tl @ [ x ])
              in
              rot_n rot lines
            in
            List.iter
              (fun (fields, expected) ->
                let r = Client.request c fields in
                let same =
                  r.Client.r_ok
                  &&
                  match expected with
                  | `Dist d -> items_identical (dist_of_result r.Client.r_body) d
                  | `Prob p -> Client.str (Client.field "prob" r.Client.r_body) = p
                in
                if not same then Atomic.incr failures)
              order)
      in
      let threads = List.init 4 (fun i -> Thread.create client_thread (3 * i)) in
      List.iter Thread.join threads;
      Alcotest.(check int) "all concurrent replies bit-identical" 0
        (Atomic.get failures))

(* A model whose memo is full still answers. The counter reaches
   one new state per step, and its signature and transition there are
   two entries, so one run a little deeper than half the cap fills the
   memo. Later requests on the model, deeper (a frontier resume past the
   cap) and at other bounds, measures and a reach, answer as a fresh
   in-process run does, and the memo stores nothing more. *)
let test_engine_memo_cap () =
  let engine = Engine.create () in
  let cap = Psioa.memo_cap in
  let model = Protocol.Counter { bound = cap } in
  let query ?bound depth =
    {
      Protocol.q_model = model;
      q_sched = { Protocol.s_kind = Protocol.Uniform; s_fault_budget = None; s_bound = bound };
      q_depth = depth;
      q_compress = `Off;
      q_max_execs = None;
      q_max_width = None;
    }
  in
  let fresh (q : Protocol.query) =
    let auto = Protocol.build_model model in
    Measure.exec_dist auto (Protocol.build_sched auto q.Protocol.q_sched) ~depth:q.Protocol.q_depth
  in
  let fill = (cap / 2) + 8 in
  ignore (Engine.measure engine (query fill));
  Alcotest.(check int) "one run fills the memo to its cap" cap (Engine.memo_entries engine);
  List.iter
    (fun (bound, depth) ->
      let q = query ?bound depth in
      check_identical
        (Printf.sprintf "counter at depth %d past a full memo" depth)
        (Engine.measure engine q).Engine.m_dist (fresh q);
      Alcotest.(check int) "the memo stays at its cap" cap (Engine.memo_entries engine))
    [ (None, fill + 16); (Some (fill + 32), fill + 24); (Some 3, 12) ];
  let q = query ~bound:(fill + 40) (fill + 40) in
  let state = Value.to_bits (Exec.lstate (List.hd (Dist.support (fresh q)))) in
  Alcotest.(check string) "reach past a full memo" "1" (Rat.to_string (fst (Engine.reach engine q ~state)));
  Alcotest.(check int) "the memo stays at its cap after a reach" cap (Engine.memo_entries engine)

(* Through the registry a composite composes its signatures as often as
   in process: the model's memo reads a missing signature through the
   composite's last-evaluation entry, which the composite's transitions
   read too. A second request on the model composes none. *)
let test_engine_composes_as_in_process () =
  let model = Protocol.Faulty_channel { seed = 4 } in
  let sched = { Protocol.s_kind = Protocol.First_enabled; s_fault_budget = None; s_bound = None } in
  let query depth =
    {
      Protocol.q_model = model;
      q_sched = sched;
      q_depth = depth;
      q_compress = `Off;
      q_max_execs = None;
      q_max_width = None;
    }
  in
  let composes f =
    let _, snap = Cdse_obs.Obs.with_stats f in
    List.assoc "sigs.compose" snap.Cdse_obs.Obs.s_counters
  in
  let in_process =
    composes (fun () ->
        let auto = Protocol.build_model model in
        ignore (Measure.exec_dist auto (Protocol.build_sched auto sched) ~depth:7))
  in
  Alcotest.(check bool) "the in-process run composes" true (in_process > 0);
  let engine = Engine.create () in
  Alcotest.(check int) "a first request composes as in process" in_process
    (composes (fun () -> ignore (Engine.measure engine (query 7))));
  Alcotest.(check int) "a second request composes none" 0
    (composes (fun () -> ignore (Engine.measure engine (query 6))))

(* ----------------------------------------------------------- shutdown *)

let test_shutdown_drains () =
  let socket = fresh_socket () in
  let server = Server.start ~workers:2 ~socket () in
  let a = Client.connect socket in
  let b = Client.connect socket in
  (* Pipeline three measures on A without reading, so at least two are
     queued or in-flight when the shutdown lands. *)
  let fields depth =
    measure_fields ~model:(model_rauto 3) ~sched:(sched_json "uniform") ~depth ()
  in
  List.iteri
    (fun i depth ->
      Client.send_line a
        (Json.to_string
           (Json.Obj (("id", Json.Num (float_of_int (100 + i))) :: fields depth))))
    [ 4; 5; 6 ];
  (* First reply means the daemon's reader has long since enqueued the
     rest (it reads the whole pipeline before the first measure finishes);
     a short grace beat keeps the race theoretical. *)
  let first = Client.reply_of_line (Client.recv_line a) in
  Alcotest.(check bool) "first pipelined reply ok" true first.Client.r_ok;
  Thread.delay 0.1;
  let bye = expect_ok (Client.shutdown b) in
  Alcotest.(check string) "shutdown acknowledged" "bye" (Client.str bye);
  (* The drain guarantee: both remaining pipelined requests still reply. *)
  let remaining = List.map (fun _ -> Client.reply_of_line (Client.recv_line a)) [ (); () ] in
  List.iter
    (fun (r : Client.reply) ->
      Alcotest.(check bool) "drained reply ok" true r.Client.r_ok)
    remaining;
  Client.close a;
  Client.close b;
  Server.wait server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
  (match Client.connect ~retries:0 socket with
  | c ->
      Client.close c;
      Alcotest.fail "connect after shutdown should fail"
  | exception Unix.Unix_error _ -> ())

(* ------------------------------------------------------------- codec *)

(* The rendering [dist_to_string] must reproduce: each item through
   [exec_to_json], one [Json.t] tree, one [Json.to_string]. *)
let render_by_item d =
  Json.to_string
    (Json.Obj
       [ ( "items",
           Json.List
             (List.map
                (fun (e, p) -> Json.List [ Codec.exec_to_json e; Json.Str (Rat.to_string p) ])
                (Dist.items d)) );
         ("mass", Json.Str (Rat.to_string (Dist.mass d)));
         ("deficit", Json.Str (Rat.to_string (Dist.deficit d)));
         ("size", Json.Num (float_of_int (Dist.size d))) ])

(* [dist_to_json] encodes each distinct state and action once per reply,
   through a table keyed by [Value.equal]/[Action.equal]. These states
   are 12-member configurations that differ only in their last member,
   where the 10-leaf [Hashtbl.hash] cannot tell them apart: the reply must
   render each state as itself whatever hash the table uses. *)
let test_codec_memo_on_hash_collisions () =
  let cfg k =
    Value.tag "cfg"
      (Value.list
         (List.init 12 (fun i ->
              Value.pair (Value.str (Printf.sprintf "m%d" i)) (Value.int (if i = 11 then k else 0)))))
  in
  Alcotest.(check int) "the states collide under a 10-leaf hash" (Hashtbl.hash (cfg 0))
    (Hashtbl.hash (cfg 1));
  let n = 16 in
  let exec k =
    let step j = Action.make ~payload:(Value.int j) "step" in
    Exec.extend (Exec.extend (Exec.init (cfg k)) (step k) (cfg ((k + 1) mod n))) (step 0) (cfg k)
  in
  let d = Dist.uniform ~compare:Exec.compare (List.init n exec) in
  let rendered = Json.to_string (Codec.dist_to_json d) in
  Alcotest.(check string) "same bytes as exec_to_json per item" (render_by_item d) rendered;
  Alcotest.(check bool) "dist_of_json gives the dist back" true
    (Dist.equal d (Codec.dist_of_json (Json.parse rendered)))

let uniform : Protocol.sched = { s_kind = Uniform; s_fault_budget = None; s_bound = None }

(* A cone of one of four model families, at most [max_execs] executions
   when given (a budgeted cone keeps a non-zero deficit). *)
let codec_cone ?max_execs (family, seed, depth) =
  let model : Protocol.model =
    match family with
    | 0 -> Random_auto { seed; states = 6; actions = 3; branching = 2 }
    | 1 -> Random_walk { span = 2 + (seed mod 4) }
    | 2 -> Random_pca { seed; members = 3 + (seed mod 3); faults = false }
    | _ -> Faulty_channel { seed }
  in
  let depth = match family with 2 -> depth mod 4 | 3 -> depth | _ -> depth mod 6 in
  let auto = Protocol.build_model model in
  match Measure.exec_dist_budgeted ?max_execs auto (Protocol.build_sched auto uniform) ~depth with
  | `Exact d | `Truncated (d, _) -> d

(* The same executions under another start state. Their steps are the
   originals' pairs, physically: a renderer that copied a prefix without
   comparing start states would give the first of them the last
   original's start. *)
let rerooted d =
  Dist.map ~compare:Exec.compare
    (fun e -> Exec.of_steps (Value.tag "rerooted" (Exec.fstate e)) (Exec.steps e))
    d

(* One pass that copies the steps an item shares with the one before it
   renders what the per-item reference renders: on engine cones, whose
   siblings share their prefix physically; on the same dists decoded
   from their text, which share nothing; on items of two start states;
   and on budgeted cones. *)
let prop_codec_one_pass =
  QCheck.Test.make ~count:60 ~name:"dist_to_string renders what exec_to_json renders per item"
    QCheck.(
      pair (triple (int_bound 3) (int_range 1 40) (int_bound 7)) (option (int_range 1 30)))
    (fun (shape, max_execs) ->
      let d = codec_cone ?max_execs shape in
      let same d = String.equal (Codec.dist_to_string d) (render_by_item d) in
      let two_starts =
        Dist.make ~compare:Exec.compare
          (List.map (fun (e, p) -> (e, Rat.mul p Rat.half)) (Dist.items d @ Dist.items (rerooted d)))
      in
      same d
      && String.equal (Json.to_string (Codec.dist_to_json d)) (render_by_item d)
      && same (Codec.dist_of_json (Json.parse (Codec.dist_to_string d)))
      && same two_starts)

let test_codec_budgeted_deficit () =
  let d = codec_cone ~max_execs:20 (3, 1, 7) in
  Alcotest.(check bool) "the budget leaves a deficit" false (Rat.equal (Dist.deficit d) Rat.zero);
  Alcotest.(check string) "same bytes as exec_to_json per item" (render_by_item d)
    (Codec.dist_to_string d)

(* A [random_walk] of span 2 at depth 2 under [uniform], as the daemon
   rendered it before the one-pass renderer: four items, each sharing its
   first step with a neighbour. Any byte the renderer moves fails here,
   without going through [Json.to_string]. *)
let walk_2_2_bytes =
  String.concat ""
    [ {|{"items":[[{"start":"11000101011101110110000101101100011010110101010","steps":[["11000111011101110010111001110011011101000110010101110000000","110001010111011101100001011011000110101101011"],["11000111011101110010111001110011011101000110010101110000000","110001010111011101100001011011000110101101011"]]},"1/4"],|};
      {|[{"start":"11000101011101110110000101101100011010110101010","steps":[["11000111011101110010111001110011011101000110010101110000000","110001010111011101100001011011000110101101011"],["11000111011101110010111001110011011101000110010101110000000","11000101011101110110000101101100011010110101010"]]},"1/4"],|};
      {|[{"start":"11000101011101110110000101101100011010110101010","steps":[["11000111011101110010111001110011011101000110010101110000000","11000101011101110110000101101100011010110101011"],["11000111011101110010111001110011011101000110010101110000000","11000101011101110110000101101100011010110101010"]]},"1/4"],|};
      {|[{"start":"11000101011101110110000101101100011010110101010","steps":[["11000111011101110010111001110011011101000110010101110000000","11000101011101110110000101101100011010110101011"],["11000111011101110010111001110011011101000110010101110000000","11000101011101110110000101101100011010110101011"]]},"1/4"]],|};
      {|"mass":"1","deficit":"0","size":4}|} ]

let test_codec_pinned_bytes () =
  let auto = Protocol.build_model (Random_walk { span = 2 }) in
  let d = Measure.exec_dist auto (Protocol.build_sched auto uniform) ~depth:2 in
  Alcotest.(check int) "1 263 bytes" 1263 (String.length walk_2_2_bytes);
  Alcotest.(check string) "the pinned bytes" walk_2_2_bytes (Codec.dist_to_string d)

(* ------------------------------------------------------------- runner *)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "ping round-trip" `Quick test_ping_pong;
          Alcotest.test_case "measure round-trip" `Quick test_measure_roundtrip;
          Alcotest.test_case "reach round-trip" `Quick test_reach_roundtrip;
          Alcotest.test_case "emulate round-trip" `Quick test_emulate_roundtrip;
          Alcotest.test_case "malformed requests get error replies" `Quick
            test_malformed_requests;
          Alcotest.test_case "oversized request line is refused" `Quick
            test_oversized_line;
          Alcotest.test_case "exception printers" `Quick test_exception_printers;
          Alcotest.test_case "budgeted reach is a protocol error" `Quick
            test_budgeted_reach_rejected;
          Alcotest.test_case "stale memo/domains fields are ignored" `Quick
            test_stale_engine_fields_ignored;
          qtest prop_parse_hostile;
          test_socket_hostile;
          Alcotest.test_case "every prefix and cap-deep nesting rejected" `Quick
            test_parse_prefixes_and_deep_nesting;
        ] );
      ( "engine",
        [
          Alcotest.test_case "model registry survives a failing spec" `Quick
            test_model_registry_survives_failure;
          Alcotest.test_case "budgeted reach refused in-process" `Quick
            test_engine_reach_refuses_budget;
          Alcotest.test_case "a full model memo still answers" `Quick test_engine_memo_cap;
          Alcotest.test_case "composes as often as in process" `Quick
            test_engine_composes_as_in_process;
          Alcotest.test_case "create accepts only ~domains:1" `Quick
            test_engine_domains_only_one;
        ] );
      ( "codec",
        [
          Alcotest.test_case "per-reply memo under 10-leaf hash collisions" `Quick
            test_codec_memo_on_hash_collisions;
          qtest prop_codec_one_pass;
          Alcotest.test_case "budgeted cone with a deficit" `Quick test_codec_budgeted_deficit;
          Alcotest.test_case "pinned bytes of a small measure" `Quick test_codec_pinned_bytes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "cache hit is bit-identical" `Quick
            test_cache_hit_bit_identity;
          Alcotest.test_case "budgeted results cache tag and deficit" `Quick
            test_budgeted_cache_hit;
          qtest prop_cache_sound;
        ] );
      ( "deepening",
        [
          Alcotest.test_case "depth d then d+k equals one-shot" `Quick
            test_incremental_deepening;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent clients, identical answers" `Quick
            test_concurrent_clients;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "shutdown drains in-flight requests" `Quick
            test_shutdown_drains;
        ] );
    ]
