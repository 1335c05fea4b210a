(* Operation sets for the serve workloads. A workload is a fixed set of
   operations, each one request line, sent in rounds: every round sends
   each operation once, in an order drawn by the workload seed. The lines
   are a pure function of the seed, so a run and the traced replay of its
   prefix see the same lines; the daemon sees nothing else. *)

open Cdse
module Json = Cdse_serve.Json
module P = Cdse_serve.Protocol

type req = {
  body : string;  (** the request object without its opening '{' and id *)
  query : P.query;  (** what the daemon parses out of the line *)
  state : Bits.t option;  (** the target state of a [reach] *)
}

let line ~id r = Printf.sprintf "{\"id\":%d,%s" id r.body

let num i = Json.Num (float_of_int i)

(* The query is parsed back from the line itself, so the benchmark's
   expectations are about exactly what went over the wire. *)
let make fields =
  let s = Json.to_string (Json.Obj fields) in
  let body = String.sub s 1 (String.length s - 1) in
  match (P.parse_request ("{\"id\":0," ^ body)).P.r_op with
  | P.Measure query -> { body; query; state = None }
  | P.Reach (query, st) -> { body; query; state = Some st }
  | _ -> invalid_arg "Gen.make: not a measure or reach request"

let model kind fields = Json.Obj (("kind", Json.Str kind) :: fields)
let walk ~span = model "random_walk" [ ("span", num span) ]

let rauto ~seed ~branching =
  model "random_auto"
    [ ("seed", num seed); ("states", num 8); ("actions", num 3); ("branching", num branching) ]

let rpca ~seed ~members = model "random_pca" [ ("seed", num seed); ("members", num members) ]
let fchan ~seed = model "faulty_channel" [ ("seed", num seed) ]

let fields ~op ?bound model depth =
  [
    ("op", Json.Str op);
    ("model", model);
    ( "sched",
      Json.Obj
        (("kind", Json.Str "uniform")
        :: (match bound with Some b -> [ ("bound", num b) ] | None -> [])) );
    ("depth", num depth);
  ]

let measure ?bound model depth = make (fields ~op:"measure" ?bound model depth)

let reach ~bound model ~state depth =
  make (fields ~op:"reach" ~bound model depth @ [ ("state", Json.Str state) ])

(* An operation set: [size] operations; [op ~round i] is the [i]-th line
   sent in round [round], with the operation's index in the set, which is
   the same in every round. *)
type ops = { size : int; op : round:int -> int -> int * req }

(* A seeded order of [n] items for each round, the same for every call
   with the same seed and round. *)
let orders ~seed n =
  let last = ref (-1, [||]) in
  fun round ->
    match !last with
    | r, perm when r = round -> perm
    | _ ->
        let perm = Array.of_list (Rng.shuffle (Rng.make ((seed * 7919) + round)) (List.init n Fun.id)) in
        last := (round, perm);
        perm

(* A scheduler bound above every depth used here: the same measure as no
   bound, under its own cache key. Each (round, line) gets its own, so a
   line misses the result cache in every round. *)
let fresh_bound ~round ~lines j = 1000 + (round * lines) + j

(* The operation sets are fixed; the seed orders each round. Each is
   small, so every operation runs many times in a run and its median
   latency is reported. A set drawn afresh per seed would make the mix,
   not the system, move the numbers: model sizes are heavy-tailed. *)

(* serve_cold: the four walk models of spans 3–6 at depths 6, 7 and 8,
   registered at set-up, and twelve random automata (8 states, 3
   actions, branching 2) at depth 5. *)
let cold_shapes =
  Array.of_list
    (List.concat_map (fun span -> List.map (fun d -> (walk ~span, d)) [ 6; 7; 8 ]) [ 3; 4; 5; 6 ]
    @ List.init 12 (fun s -> (rauto ~seed:(s + 1) ~branching:2, 5)))

let cold ~seed =
  let size = Array.length cold_shapes in
  let order = orders ~seed size in
  {
    size;
    op =
      (fun ~round i ->
        let j = (order round).(i) in
        let m, depth = cold_shapes.(j) in
        (j, measure ~bound:(fresh_bound ~round ~lines:size j) m depth));
  }

(* Registers the four walk models the cold set uses. *)
let cold_warmup = List.init 4 (fun s -> measure ~bound:1 (walk ~span:(3 + s)) 1)

(* serve_warm: a 32-key working set of walk lines, half the daemon's
   64-entry cache: each of four spans at depths 4, 4, 5, 5, 6, 6, 7 and 8
   (replies of 9–257 KB). Every round requests each key once. *)
let warm_keys =
  Array.init 32 (fun j ->
      measure ~bound:(100 + j) (walk ~span:(3 + (j / 8))) [| 4; 4; 5; 5; 6; 6; 7; 8 |].(j mod 8))

let warm ~seed =
  let size = Array.length warm_keys in
  let order = orders ~seed size in
  {
    size;
    op =
      (fun ~round i ->
        let j = (order round).(i) in
        (j, warm_keys.(j)));
  }

(* A state reached at depth 2, drawn from the model's own depth-2 cone. *)
let target rng model =
  let r = measure ~bound:1 model 2 in
  let auto = P.build_model r.query.P.q_model in
  let sched = P.build_sched auto r.query.P.q_sched in
  let execs = Dist.support (Measure.exec_dist auto sched ~depth:2) in
  Bits.to_string (Value.to_bits (Exec.lstate (Rng.pick rng execs)))

(* serve_reach: fresh lines over four models of each of three families
   (random automata 8x3x3 at depth 5, random PCAs of 5-8 members at depth
   3, faulty channels at depth 7), each followed by the same line one
   step deeper, which resumes from the frontier the first one cached.
   The seed picks each line's target state and orders the pairs. *)
let reach_families =
  List.concat_map
    (fun s ->
      [ (rauto ~seed:s ~branching:3, 5); (rpca ~seed:s ~members:(4 + s), 3); (fchan ~seed:s, 7) ])
    [ 1; 2; 3; 4 ]

let reach_ops ~seed =
  let rng = Rng.make seed in
  let shapes = Array.of_list (List.map (fun (m, d) -> (m, d, target rng m)) reach_families) in
  let pairs = Array.length shapes in
  let order = orders ~seed pairs in
  {
    size = 2 * pairs;
    op =
      (fun ~round i ->
        let p = (order round).(i / 2) in
        let model, depth, state = shapes.(p) in
        let bound = fresh_bound ~round ~lines:pairs p in
        ((2 * p) + (i mod 2), reach ~bound model ~state (depth + (i mod 2))));
  }
