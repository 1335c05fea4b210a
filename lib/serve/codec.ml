open Cdse_prob
open Cdse_psioa
module Bits = Cdse_util.Bits

let bits_str b = Json.Str (Bits.to_string b)

let exec_json ~state ~action e =
  Json.Obj
    [
      ("start", state (Exec.fstate e));
      ( "steps",
        Json.List
          (List.map (fun (a, q) -> Json.List [ action a; state q ]) (Exec.steps e)) );
    ]

let exec_to_json =
  exec_json
    ~state:(fun v -> bits_str (Value.to_bits v))
    ~action:(fun a -> bits_str (Action.to_bits a))

(* A per-reply table from each distinct state or action to its rendered
   encoding. [Value.hash] stops after 10 leaves, so configurations that
   differ only in a late member would share one bucket; this table hashes
   up to 256 nodes of the term. *)
module Memo (K : sig
  type t

  val equal : t -> t -> bool
  val to_bits : t -> Bits.t
end) =
struct
  module Tbl = Hashtbl.Make (struct
    type t = K.t

    let equal = K.equal
    let hash = Hashtbl.hash_param 256 256
  end)

  let render tbl k =
    match Tbl.find_opt tbl k with
    | Some j -> j
    | None ->
        let j = bits_str (K.to_bits k) in
        Tbl.add tbl k j;
        j
end

module State_memo = Memo (Value)
module Action_memo = Memo (Action)

let malformed what = invalid_arg ("Serve.Codec: malformed " ^ what)

let str_of = function Json.Str s -> s | _ -> malformed "string"

let value_of j = Value.of_bits (Bits.of_string (str_of j))
let action_of j = Action.of_bits (Bits.of_string (str_of j))

let exec_of_json j =
  match (Json.member "start" j, Json.member "steps" j) with
  | Some start, Some (Json.List steps) ->
      Exec.of_steps (value_of start)
        (List.map
           (function
             | Json.List [ a; q ] -> (action_of a, value_of q)
             | _ -> malformed "exec step")
           steps)
  | _ -> malformed "exec"

let dist_to_json d =
  let states = State_memo.Tbl.create 256 and actions = Action_memo.Tbl.create 64 in
  let exec =
    exec_json ~state:(State_memo.render states) ~action:(Action_memo.render actions)
  in
  Json.Obj
    [
      ( "items",
        Json.List
          (List.map
             (fun (e, p) -> Json.List [ exec e; Json.Str (Rat.to_string p) ])
             (Dist.items d)) );
      ("mass", Json.Str (Rat.to_string (Dist.mass d)));
      ("deficit", Json.Str (Rat.to_string (Dist.deficit d)));
      ("size", Json.Num (float_of_int (Dist.size d)));
    ]

let dist_of_json j =
  match Json.member "items" j with
  | Some (Json.List items) ->
      Dist.make ~compare:Exec.compare
        (List.map
           (function
             | Json.List [ e; Json.Str p ] -> (exec_of_json e, Rat.of_string p)
             | _ -> malformed "dist item")
           items)
  | _ -> malformed "dist"
