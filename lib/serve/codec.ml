open Cdse_prob
open Cdse_psioa
module Bits = Cdse_util.Bits

let bits_str b = Json.Str (Bits.to_string b)

let exec_to_json e =
  Json.Obj
    [
      ("start", bits_str (Value.to_bits (Exec.fstate e)));
      ( "steps",
        Json.List
          (List.map
             (fun (a, q) ->
               Json.List [ bits_str (Action.to_bits a); bits_str (Value.to_bits q) ])
             (Exec.steps e)) );
    ]

(* A per-reply table from each distinct state or action to its encoding,
   quoted, hashed all the way down by [Value.hash]/[Action.hash]. An
   encoding is a run of '0'/'1', so it needs no escaping. *)
module Memo (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val to_bits : t -> Bits.t
end) =
struct
  module Tbl = Hashtbl.Make (K)

  let quoted tbl k =
    match Tbl.find_opt tbl k with
    | Some s -> s
    | None ->
        let s = "\"" ^ Bits.to_string (K.to_bits k) ^ "\"" in
        Tbl.add tbl k s;
        s
end

module State_memo = Memo (Value)
module Action_memo = Memo (Action)

(* The text of the reply being rendered, reused for every reply under
   [lock]: like a connection's reply buffer, [bytes] stays at its largest
   size, while the memo tables go back to their initial size for each
   reply. [ends.(j)] is where the current item's text after its [j]th step
   ends, counted from the item's start; the item before left the same
   entries for the steps the two share. *)
type out = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable ends : int array;
  states : string State_memo.Tbl.t;
  actions : string Action_memo.Tbl.t;
}

let out =
  {
    bytes = Bytes.create 4096;
    len = 0;
    ends = Array.make 16 0;
    states = State_memo.Tbl.create 256;
    actions = Action_memo.Tbl.create 64;
  }

let lock = Mutex.create ()

let reserve o n =
  if o.len + n > Bytes.length o.bytes then begin
    let b = Bytes.create (max (o.len + n) (2 * Bytes.length o.bytes)) in
    Bytes.blit o.bytes 0 b 0 o.len;
    o.bytes <- b
  end

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

(* Appends a copy of the [n] bytes of text written from [off] on. *)
let add_copy o off n =
  reserve o n;
  Bytes.blit o.bytes off o.bytes o.len n;
  o.len <- o.len + n

(* One item, [[exec, rat]], after the item that starts at [prev] (or
   [None] for the first). Its leading steps that are physically the
   previous item's steps, as a cone's siblings hold them, are copied from
   that item's text; only the rest is rendered. *)
let add_item o prev e p =
  let first = Exec.fstate e and steps = Exec.steps e in
  if Exec.length e >= Array.length o.ends then begin
    let ends = Array.make (2 * (Exec.length e + 1)) 0 in
    Array.blit o.ends 0 ends 0 (Array.length o.ends);
    o.ends <- ends
  end;
  add_string o (if Option.is_none prev then "[" else ",[");
  let start = o.len in
  let rec render j = function
    | [] -> ()
    | (a, q) :: rest ->
        add_string o (if j = 1 then "[" else ",[");
        add_string o (Action_memo.quoted o.actions a);
        add_char o ',';
        add_string o (State_memo.quoted o.states q);
        add_char o ']';
        o.ends.(j) <- o.len - start;
        render (j + 1) rest
  in
  (match prev with
  | Some (off, first', steps') when first == first' ->
      let rec shared j prev cur =
        match (prev, cur) with
        | x :: prev, y :: cur when x == y -> shared (j + 1) prev cur
        | _ ->
            add_copy o off o.ends.(j);
            render (j + 1) cur
      in
      shared 0 steps' steps
  | _ ->
      add_string o "{\"start\":";
      add_string o (State_memo.quoted o.states first);
      add_string o ",\"steps\":[";
      o.ends.(0) <- o.len - start;
      render 1 steps);
  add_string o "]},\"";
  add_string o (Rat.to_string p);
  add_string o "\"]";
  Some (start, first, steps)

let dist_to_string d =
  Mutex.protect lock @@ fun () ->
  let o = out in
  o.len <- 0;
  State_memo.Tbl.reset o.states;
  Action_memo.Tbl.reset o.actions;
  add_string o "{\"items\":[";
  ignore (Dist.fold (fun prev e p -> add_item o prev e p) None d);
  add_string o "],\"mass\":\"";
  add_string o (Rat.to_string (Dist.mass d));
  add_string o "\",\"deficit\":\"";
  add_string o (Rat.to_string (Dist.deficit d));
  add_string o "\",\"size\":";
  add_string o (string_of_int (Dist.size d));
  add_char o '}';
  Bytes.sub_string o.bytes 0 o.len

let dist_to_json d = Json.Raw (dist_to_string d)

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
