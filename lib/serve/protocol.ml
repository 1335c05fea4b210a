open Cdse_prob
open Cdse_sched

exception
  Protocol_error of { id : int option; field : string; msg : string }

exception Overloaded of { id : int option; queue_depth : int; cap : int }

let () =
  Printexc.register_printer (function
    | Protocol_error { id; field; msg } ->
        Some
          (Printf.sprintf
             "Serve.Protocol_error: request %s, field %S: %s. The daemon \
              replies with an {\"ok\": false, \"error\": {\"kind\": \
              \"protocol\", ...}} object and keeps the connection open; fix \
              the field and resend."
             (match id with
             | Some i -> Printf.sprintf "id %d" i
             | None -> "(id unknown)")
             field msg)
    | Overloaded { id; queue_depth; cap } ->
        Some
          (Printf.sprintf
             "Serve.Overloaded: request %s rejected: %d queued jobs already \
              at the admission cap of %d. The request was not enqueued; \
              retry once in-flight queries drain, or restart the daemon \
              with a larger --max-queue."
             (match id with
             | Some i -> Printf.sprintf "id %d" i
             | None -> "(id unknown)")
             queue_depth cap)
    | _ -> None)

type model =
  | Coin of { p : Rat.t }
  | Random_walk of { span : int }
  | Counter of { bound : int }
  | Random_auto of { seed : int; states : int; actions : int; branching : int }
  | Random_pca of { seed : int; members : int; faults : bool }
  | Faulty_channel of { seed : int }
  | Committee of { validators : int; blocks : int }

type sched_kind = Uniform | First_enabled | Round_robin

type sched = {
  s_kind : sched_kind;
  s_fault_budget : int option;
  s_bound : int option;
}

type query = {
  q_model : model;
  q_sched : sched;
  q_depth : int;
  q_compress : Measure.compress;
  q_domains : int option;
  q_memo : bool;
  q_max_execs : int option;
  q_max_width : int option;
}

type protocol_name = [ `Channel | `Coin_flip | `Secret_share | `Broadcast ]

type op =
  | Ping
  | Measure of query
  | Reach of query * Cdse_util.Bits.t
  | Emulate of { protocol : protocol_name; broken : bool }
  | Stats
  | Shutdown

type request = { r_id : int; r_op : op }

(* Field extraction. Every failure funnels through [bad] so the reply can
   name the offending field; [id] is threaded through once the request id
   has been recovered, so even mid-body failures echo it, and [prefix]
   qualifies the fields of a nested object ("model.span"). *)

let bad ?id field msg = raise (Protocol_error { id; field; msg })

let get_int ?id ?(prefix = "") ~field ?default obj =
  match Json.member field obj with
  | None -> (
      match default with
      | Some d -> d
      | None -> bad ?id (prefix ^ field) "required integer field is missing")
  | Some v -> (
      match Json.to_int v with
      | Some i -> i
      | None -> bad ?id (prefix ^ field) "expected an integer")

let get_bool ?id ?(prefix = "") ~field ~default obj =
  match Json.member field obj with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad ?id (prefix ^ field) "expected a boolean"

let get_str ?id ?(prefix = "") ~field obj =
  match Json.member field obj with
  | None -> bad ?id (prefix ^ field) "required string field is missing"
  | Some (Json.Str s) -> s
  | Some _ -> bad ?id (prefix ^ field) "expected a string"

let get_opt_int ?id ?(prefix = "") ~field obj =
  match Json.member field obj with
  | None -> None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Some i
      | None -> bad ?id (prefix ^ field) "expected an integer")

let get_obj ~id ~field obj =
  match Json.member field obj with
  | None -> bad ~id field "required object field is missing"
  | Some (Json.Obj _ as o) -> o
  | Some _ -> bad ~id field "expected an object"

let parse_model ~id obj =
  let m = get_obj ~id ~field:"model" obj in
  let int_f ?default field = get_int ~id ~prefix:"model." ~field ?default m in
  match get_str ~id ~prefix:"model." ~field:"kind" m with
  | "coin" ->
      let p =
        match Json.member "p" m with
        | None -> Rat.half
        | Some (Json.Str s) -> (
            match Rat.of_string s with
            | r -> r
            | exception _ -> bad ~id "model.p" "not a rational (\"1/2\")")
        | Some _ -> bad ~id "model.p" "expected a rational string"
      in
      Coin { p }
  | "random_walk" -> Random_walk { span = int_f ~default:4 "span" }
  | "counter" -> Counter { bound = int_f ~default:3 "bound" }
  | "random_auto" ->
      Random_auto
        {
          seed = int_f "seed";
          states = int_f ~default:6 "states";
          actions = int_f ~default:4 "actions";
          branching = int_f ~default:2 "branching";
        }
  | "random_pca" ->
      Random_pca
        {
          seed = int_f "seed";
          members = int_f ~default:4 "members";
          faults = get_bool ~id ~prefix:"model." ~field:"faults" ~default:false m;
        }
  | "faulty_channel" -> Faulty_channel { seed = int_f "seed" }
  | "committee" ->
      Committee
        {
          validators = int_f ~default:3 "validators";
          blocks = int_f ~default:2 "blocks";
        }
  | k ->
      bad ~id "model.kind"
        (Printf.sprintf
           "unknown model kind %S (expected coin | random_walk | counter | \
            random_auto | random_pca | faulty_channel | committee)"
           k)

let parse_sched ~id obj =
  let s = get_obj ~id ~field:"sched" obj in
  let s_kind =
    match get_str ~id ~prefix:"sched." ~field:"kind" s with
    | "uniform" -> Uniform
    | "first_enabled" -> First_enabled
    | "round_robin" -> Round_robin
    | k ->
        bad ~id "sched.kind"
          (Printf.sprintf
             "unknown scheduler kind %S (expected uniform | first_enabled | \
              round_robin)"
             k)
  in
  {
    s_kind;
    s_fault_budget = get_opt_int ~id ~prefix:"sched." ~field:"fault_budget" s;
    s_bound = get_opt_int ~id ~prefix:"sched." ~field:"bound" s;
  }

let parse_query ~id obj =
  let q_model = parse_model ~id obj in
  let q_sched = parse_sched ~id obj in
  let q_depth = get_int ~id ~field:"depth" obj in
  if q_depth < 0 then bad ~id "depth" "must be non-negative";
  let q_compress =
    let levels = Par_measure.compress_levels in
    match Json.member "compress" obj with
    | None -> `Off
    | Some (Json.Str name) when List.mem_assoc name levels -> List.assoc name levels
    | Some _ ->
        bad ~id "compress"
          ("expected "
          ^ String.concat " | " (List.map (fun (name, _) -> Printf.sprintf "%S" name) levels))
  in
  let q_domains = get_opt_int ~id ~field:"domains" obj in
  (match q_domains with
  | Some d when d < 1 -> bad ~id "domains" "must be at least 1"
  | _ -> ());
  {
    q_model;
    q_sched;
    q_depth;
    q_compress;
    q_domains;
    q_memo = get_bool ~id ~field:"memo" ~default:false obj;
    q_max_execs = get_opt_int ~id ~field:"max_execs" obj;
    q_max_width = get_opt_int ~id ~field:"max_width" obj;
  }

let parse_request line =
  let obj =
    match Json.parse line with
    | v -> v
    | exception Json.Parse_error msg -> bad "request" msg
  in
  (match obj with
  | Json.Obj _ -> ()
  | _ -> bad "request" "expected a JSON object");
  let id = get_int ~field:"id" obj in
  let op_name = get_str ~id ~field:"op" obj in
  let r_op =
    match op_name with
    | "ping" -> Ping
    | "stats" -> Stats
    | "shutdown" -> Shutdown
    | "measure" -> Measure (parse_query ~id obj)
    | "reach" ->
        let q = parse_query ~id obj in
        let bits = get_str ~id ~field:"state" obj in
        let state =
          match Cdse_util.Bits.of_string bits with
          | b -> b
          | exception Invalid_argument m -> bad ~id "state" m
        in
        Reach (q, state)
    | "emulate" ->
        let protocol =
          match get_str ~id ~field:"protocol" obj with
          | "channel" -> `Channel
          | "coin-flip" -> `Coin_flip
          | "secret-share" -> `Secret_share
          | "broadcast" -> `Broadcast
          | p ->
              bad ~id "protocol"
                (Printf.sprintf
                   "unknown protocol %S (expected channel | coin-flip | \
                    secret-share | broadcast)"
                   p)
        in
        Emulate { protocol; broken = get_bool ~id ~field:"broken" ~default:false obj }
    | o ->
        bad ~id "op"
          (Printf.sprintf
             "unknown op %S (expected ping | measure | reach | emulate | \
              stats | shutdown)"
             o)
  in
  { r_id = id; r_op }

(* Canonical keys. Rendered from the *parsed* specs (defaults applied), so
   spelling differences on the wire cannot split cache lines. *)

let model_key = function
  | Coin { p } -> Printf.sprintf "coin(p=%s)" (Rat.to_string p)
  | Random_walk { span } -> Printf.sprintf "walk(span=%d)" span
  | Counter { bound } -> Printf.sprintf "counter(bound=%d)" bound
  | Random_auto { seed; states; actions; branching } ->
      Printf.sprintf "rauto(seed=%d,s=%d,a=%d,b=%d)" seed states actions
        branching
  | Random_pca { seed; members; faults } ->
      Printf.sprintf "rpca(seed=%d,m=%d,f=%b)" seed members faults
  | Faulty_channel { seed } -> Printf.sprintf "fchan(seed=%d)" seed
  | Committee { validators; blocks } ->
      Printf.sprintf "committee(v=%d,b=%d)" validators blocks

let sched_key s =
  let kind =
    match s.s_kind with
    | Uniform -> "uniform"
    | First_enabled -> "first"
    | Round_robin -> "rr"
  in
  Printf.sprintf "%s(budget=%s,bound=%s)" kind
    (match s.s_fault_budget with Some k -> string_of_int k | None -> "-")
    (match s.s_bound with Some b -> string_of_int b | None -> "-")

let compress_key = function
  | `Off -> "off"
  | `Hcons -> "hcons"
  | `Quotient -> "quot"

let is_budgeted q = q.q_max_execs <> None || q.q_max_width <> None

let query_line q =
  let budget =
    if is_budgeted q then
      Printf.sprintf "|exec<=%s,width<=%s"
        (match q.q_max_execs with Some n -> string_of_int n | None -> "-")
        (match q.q_max_width with Some n -> string_of_int n | None -> "-")
    else ""
  in
  Printf.sprintf "%s|%s|%s%s" (model_key q.q_model) (sched_key q.q_sched)
    (compress_key q.q_compress) budget

let query_key q = Printf.sprintf "%s|d=%d" (query_line q) q.q_depth

(* Spec elaboration: deterministic by construction — the random families
   are seeded, the fixed families are closed terms. *)

let build_model = function
  | Coin { p } -> Cdse_gen.Workloads.coin ~p "c"
  | Random_walk { span } -> Cdse_gen.Workloads.random_walk ~span "w"
  | Counter { bound } -> Cdse_gen.Workloads.counter ~bound "k"
  | Random_auto { seed; states; actions; branching } ->
      Cdse_gen.Random_auto.make ~rng:(Rng.make seed) ~name:"ca"
        ~n_states:states ~n_actions:actions ~branching ()
  | Random_pca { seed; members; faults } ->
      Cdse_config.Pca.psioa
        (Cdse_gen.Random_pca.make ~rng:(Rng.make seed) ~n_members:members
           ~faults ())
  | Faulty_channel { seed } -> Cdse_gen.Workloads.faulty_channel ~seed
  | Committee { validators; blocks } ->
      Cdse_config.Pca.psioa
        (Cdse_dynamic.Committee.build ~max_validators:validators ~blocks
           "cmt")

let build_sched auto s =
  let base =
    match s.s_kind with
    | Uniform -> Scheduler.uniform auto
    | First_enabled -> Scheduler.first_enabled auto
    | Round_robin -> Scheduler.round_robin auto
  in
  let base =
    match s.s_fault_budget with
    | Some k -> Cdse_fault.Fault.budget_sched k base
    | None -> base
  in
  match s.s_bound with Some b -> Scheduler.bounded b base | None -> base
