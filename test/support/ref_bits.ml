(* A reference for the canonical bit encodings of Value and Action, built
   the slow, obvious way: every piece is a '0'/'1' string and pieces are
   joined with string concatenation. Tests compare the packed encoders
   against it, so a change to the wire encoding cannot pass unnoticed
   the way it would pass a round-trip property. *)

open Cdse_psioa

(* [width]-bit big-endian binary of [n]. *)
let bin ~width n =
  String.init width (fun i -> if n land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

(* Elias gamma of n+1: (width-1) zeros, then n+1 in [width] bits. *)
let nat n =
  let m = n + 1 in
  let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
  let w = width 0 m in
  String.make (w - 1) '0' ^ bin ~width:w m

let str s =
  nat (String.length s)
  ^ String.concat "" (List.map (fun c -> bin ~width:8 (Char.code c)) (List.of_seq (String.to_seq s)))

let rec value = function
  | Value.Unit -> "000"
  | Value.Bool b -> "001" ^ if b then "1" else "0"
  | Value.Int n -> "010" ^ (if n >= 0 then "1" else "0") ^ nat (abs n)
  | Value.Str s -> "011" ^ str s
  | Value.Pair (a, b) -> "100" ^ value a ^ value b
  | Value.List l -> "101" ^ nat (List.length l) ^ String.concat "" (List.map value l)
  | Value.Tag (t, v) -> "110" ^ str t ^ value v

let action a = value (Value.Tag (Action.name a, Action.payload a))
