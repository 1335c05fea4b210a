type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Tag of string * t

let unit = Unit
let bool b = Bool b
let int n = Int n
let str s = Str s
let pair a b = Pair (a, b)
let list l = List l
let tag name v = Tag (name, v)

let ctor_rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4
  | List _ -> 5
  | Tag _ -> 6

(* Physical equality short-circuits the structural descent: a state
   shared by sibling cone executions, or a sub-term shared by two unequal
   values, compares in O(1). Other values pay only the one pointer test. *)
let rec compare a b =
  if a == b then 0
  else
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Pair (x1, y1), Pair (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | List l1, List l2 -> Cdse_util.Order.list compare l1 l2
  | Tag (t1, v1), Tag (t2, v2) ->
      let c = String.compare t1 t2 in
      if c <> 0 then c else compare v1 v2
  | _ -> Int.compare (ctor_rank a) (ctor_rank b)

let equal a b = a == b || compare a b = 0

(* All the way down, up to 256 nodes: [Hashtbl.hash] stops after 10
   meaningful leaves, so configurations that differ only in a late member
   would share one bucket chain. On a value with at most 10 meaningful
   leaves the two agree; E2 hides actions by [Action.hash], so its output
   depends on that. *)
let hash v = Hashtbl.hash_param 256 256 v

open Cdse_util

module W = Bits.Writer

let write_str w s =
  W.nat w (String.length s);
  String.iter (fun c -> W.int ~width:8 w (Char.code c)) s

(* 3-bit constructor tag, then constructor-specific payload. Ints are
   encoded as sign bit + gamma-coded magnitude. *)
let rec write w v =
  let tag3 n = W.int ~width:3 w n in
  match v with
  | Unit -> tag3 0
  | Bool b ->
      tag3 1;
      W.bit w b
  | Int n ->
      tag3 2;
      W.bit w (n >= 0);
      W.nat w (abs n)
  | Str s ->
      tag3 3;
      write_str w s
  | Pair (a, b) ->
      tag3 4;
      write w a;
      write w b
  | List l ->
      tag3 5;
      W.nat w (List.length l);
      List.iter (write w) l
  | Tag (t, x) ->
      tag3 6;
      write_str w t;
      write w x

let to_bits v =
  let w = W.create () in
  write w v;
  W.contents w

let decode_str r =
  let n = Bits.Reader.read_nat r in
  String.init n (fun _ -> Char.chr (Bits.Reader.read_int ~width:8 r))

let rec decode r =
  match Bits.Reader.read_int ~width:3 r with
  | 0 -> Unit
  | 1 -> Bool (Bits.Reader.read_bit r)
  | 2 ->
      let pos = Bits.Reader.read_bit r in
      let m = Bits.Reader.read_nat r in
      (* Reject the non-canonical "-0" so that every value has exactly one
         encoding (the injectivity the bounded layer relies on). *)
      if (not pos) && m = 0 then invalid_arg "Value.decode: non-canonical negative zero";
      Int (if pos then m else -m)
  | 3 -> Str (decode_str r)
  | 4 ->
      let a = decode r in
      let b = decode r in
      Pair (a, b)
  | 5 ->
      let n = Bits.Reader.read_nat r in
      List (List.init n (fun _ -> decode r))
  | 6 ->
      let t = decode_str r in
      Tag (t, decode r)
  | n -> invalid_arg (Printf.sprintf "Value.decode: bad constructor tag %d" n)

let of_bits bits =
  let r = Bits.Reader.make bits in
  let v = decode r in
  if not (Bits.Reader.at_end r) then invalid_arg "Value.of_bits: trailing bits";
  v

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int n -> Format.pp_print_int fmt n
  | Str s -> Format.fprintf fmt "%S" s
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | List l ->
      Format.fprintf fmt "[@[<hov>%a@]]"
        (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ") pp)
        l
  | Tag (t, Unit) -> Format.fprintf fmt "%s" t
  | Tag (t, v) -> Format.fprintf fmt "%s(%a)" t pp v

let to_string v = Format.asprintf "%a" pp v
