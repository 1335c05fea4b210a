(* CI smoke gate for the serving layer: start an in-process cdse_serve
   daemon, drive the wire protocol end to end (ping, cold + warm measure,
   reach, two reaches that miss the result cache and read only the
   model's memo, stats), and assert a clean drain-and-shutdown — "bye"
   reply, socket unlinked, threads joined. Exits non-zero on any
   violation. *)

module Client = Cdse_testkit.Serve_client
module Json = Cdse_serve.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-smoke: FAIL: " ^ m);
      exit 1)
    fmt

let num i = Json.Num (float_of_int i)

let measure_fields ?bound ~depth () =
  let bound = Option.value bound ~default:depth in
  [ ("op", Json.Str "measure");
    ("model", Json.Obj [ ("kind", Json.Str "random_walk"); ("span", num 4) ]);
    ("sched", Json.Obj [ ("kind", Json.Str "uniform"); ("bound", num bound) ]);
    ("depth", num depth) ]

let run () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cdse-smoke-%d.sock" (Unix.getpid ()))
  in
  let server = Cdse_serve.Server.start ~workers:2 ~socket () in
  let c = Client.connect socket in
  let ok what r =
    if not r.Client.r_ok then
      fail "%s failed: %s" what (Json.to_string r.Client.r_body);
    r.Client.r_body
  in
  (match ok "ping" (Client.ping c) with
  | Json.Str "pong" -> ()
  | j -> fail "ping replied %s, expected \"pong\"" (Json.to_string j));
  let depth = 6 in
  let cold = ok "cold measure" (Client.request c (measure_fields ~depth ())) in
  (match Json.member "cached" cold with
  | Some (Json.Bool false) -> ()
  | _ -> fail "cold measure should report cached=false");
  let warm = ok "warm measure" (Client.request c (measure_fields ~depth ())) in
  (match Json.member "cached" warm with
  | Some (Json.Bool true) -> ()
  | _ -> fail "warm measure should report cached=true");
  (match (Json.member "dist" cold, Json.member "dist" warm) with
  | Some a, Some b ->
      if Json.to_string a <> Json.to_string b then
        fail "warm dist differs from cold dist"
  | _ -> fail "measure reply missing \"dist\"");
  (* Reach on a committed bit pattern: probability of any state is an
     exact rational string — just assert the field parses. *)
  let target =
    match Json.member "dist" cold with
    | Some d -> (
        match Json.member "items" d with
        | Some (Json.List (Json.List (Json.Obj exec :: _) :: _)) -> (
            match List.assoc_opt "start" exec with
            | Some (Json.Str bits) -> bits
            | _ -> fail "dist item has no start bits")
        | _ -> fail "dist has no items")
    | None -> fail "measure reply missing \"dist\""
  in
  let reach ?bound () =
    let r =
      ok "reach"
        (Client.request c
           (("state", Json.Str target)
           :: [ ("op", Json.Str "reach") ]
           @ List.tl (measure_fields ?bound ~depth ())))
    in
    match Json.member "prob" r with
    | Some (Json.Str s) -> (
        match Cdse.Rat.of_string s with
        | p -> p
        | exception _ -> fail "reach prob %S is not an exact rational" s)
    | _ -> fail "reach reply missing string \"prob\""
  in
  ignore (reach ());
  let sint stats path =
    let j =
      List.fold_left
        (fun j k -> match Json.member k j with Some v -> v | None -> Json.Null)
        stats path
    in
    match Json.to_int j with Some i -> i | None -> -1
  in
  let before = ok "stats" (Client.stats c) in
  (* Two more reaches at bounds above the depth: the same measure, but
     two fresh result-cache lines, so both runs read every signature and
     transition from what the cold measure left in the model's memo. *)
  let p1 = reach ~bound:(depth + 1) () in
  let p2 = reach ~bound:(depth + 2) () in
  if not (Cdse.Rat.equal p1 p2) then
    fail "reach at two bounds above the depth: %s <> %s" (Cdse.Rat.to_string p1)
      (Cdse.Rat.to_string p2);
  let stats = ok "stats" (Client.stats c) in
  let grew path = sint stats path - sint before path in
  if sint stats [ "cache"; "hits" ] < 1 then fail "stats report no cache hits";
  if sint stats [ "queries" ] < 5 then fail "stats report fewer than 5 queries";
  if grew [ "models"; "memo_hits" ] < 1 then fail "the repeated reaches hit no model memo entry";
  if grew [ "models"; "memo_misses" ] <> 0 then
    fail "the repeated reaches missed the model memo %d times" (grew [ "models"; "memo_misses" ]);
  if sint stats [ "models"; "memo_entries" ] < 1 then fail "stats report an empty model memo";
  (match ok "shutdown" (Client.shutdown c) with
  | Json.Str "bye" -> ()
  | j -> fail "shutdown replied %s, expected \"bye\"" (Json.to_string j));
  Cdse_serve.Server.wait server;
  Client.close c;
  if Sys.file_exists socket then fail "socket %s still exists after shutdown" socket;
  print_endline "serve-smoke: OK (socket drained and unlinked)"
