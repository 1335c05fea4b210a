type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t =
  let a = bits64 t and b = bits64 t in
  ({ state = a }, { state = b })

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a
