(* Two-tier representation. Probability arithmetic in the measure engine
   overwhelmingly involves rationals whose numerator and denominator fit a
   native int; the [S] constructor keeps those out of the [Bignat] limb
   representation entirely: int gcd, overflow-checked int arithmetic, no
   allocation beyond the constructor word. Values that cannot fit fall back
   to the [B] bignum form.

   Canonical invariant: a rational is represented [S] whenever its reduced
   |numerator| and denominator both fit an OCaml int (numerator strictly
   above [min_int], so negation is safe); [B] otherwise. Every constructor
   re-establishes this, so equal rationals always share a constructor and
   structural per-constructor equality/hashing is sound. *)

type t =
  | S of int * int
      (* numerator (signed, > min_int), denominator > 0, gcd(|num|, den) = 1 *)
  | B of { sg : int; n : Bignat.t; d : Bignat.t }

module Obs = Cdse_obs.Obs

(* Counted each time a small/small operation overflows the int fast path and
   has to redo its work in Bignat limbs. Operations whose arguments are
   already [B] are not promotions — the value was big before the call. *)
let c_promotions = Obs.counter "rat.promotions"

let zero = S (0, 1)
let one = S (1, 1)
let half = S (1, 2)

(* gcd on non-negative ints. *)
let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* [Bignat.of_int] rejects negatives and [abs min_int] is negative: build
   |min_int| = max_int + 1 explicitly. *)
let bignat_of_abs n =
  if n = min_int then Bignat.add (Bignat.of_int max_int) Bignat.one
  else Bignat.of_int (abs n)

(* Overflow-checked int arithmetic: [None] signals "redo in Bignat". *)
let add_ovf a b =
  let s = a + b in
  if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

let mul_ovf a b =
  if a = 0 || b = 0 then Some 0
  else if a = min_int || b = min_int then None
  else
    let p = a * b in
    if p / b = a then Some p else None

(* Normalizing big constructor; demotes to [S] when the reduced value fits. *)
let make ~sign ~num ~den =
  if Bignat.is_zero den then raise Division_by_zero;
  if sign < -1 || sign > 1 then invalid_arg "Rat.make: bad sign";
  if sign = 0 || Bignat.is_zero num then zero
  else
    let g = Bignat.gcd num den in
    let n, _ = Bignat.divmod num g in
    let d, _ = Bignat.divmod den g in
    match (Bignat.to_int_opt n, Bignat.to_int_opt d) with
    | Some ni, Some di -> S ((if sign < 0 then -ni else ni), di)
    | _ -> B { sg = sign; n; d }

(* Normalizing small constructor: [d > 0]; [n = min_int] is promoted so the
   stored numerator always negates safely. *)
let small n d =
  if n = 0 then zero
  else if n = min_int then
    make ~sign:(-1) ~num:(bignat_of_abs n) ~den:(Bignat.of_int d)
  else
    let g = igcd (abs n) d in
    S (n / g, d / g)

(* For results already in lowest terms (cross-reduced products). *)
let small_coprime n d =
  if n = 0 then zero
  else if n = min_int then
    make ~sign:(-1) ~num:(bignat_of_abs n) ~den:(Bignat.of_int d)
  else S (n, d)

let of_int n = if n = min_int then small n 1 else S (n, 1)

let of_ints num den =
  if den = 0 then raise Division_by_zero;
  if num = min_int || den = min_int then
    let sign = if num = 0 then 0 else if num > 0 = (den > 0) then 1 else -1 in
    make ~sign ~num:(bignat_of_abs num) ~den:(bignat_of_abs den)
  else if den < 0 then small (-num) (-den)
  else small num den

(* View as a (sign, |num|, den) Bignat triple — the slow-path currency. *)
let big_view = function
  | S (n, d) ->
      ((if n = 0 then 0 else if n > 0 then 1 else -1), bignat_of_abs n, Bignat.of_int d)
  | B { sg; n; d } -> (sg, n, d)

let num r = match r with S (n, _) -> bignat_of_abs n | B b -> b.n
let den r = match r with S (_, d) -> Bignat.of_int d | B b -> b.d
let sign r = match r with S (n, _) -> Int.compare n 0 | B b -> b.sg

let neg r =
  match r with S (n, d) -> S (-n, d) | B b -> B { b with sg = -b.sg }

let abs r = match r with S (n, d) -> S (Int.abs n, d) | B b -> B { b with sg = 1 }
let is_zero r = match r with S (0, _) -> true | _ -> false

(* |a| + |b| with signs on Bignat triples: cross-multiply unless the
   denominators already agree (the common case when summing probability
   masses). *)
let slow_add a b =
  let sa, na, da = big_view a and sb, nb, db = big_view b in
  if sa = 0 then b
  else if sb = 0 then a
  else
    let x, y, d =
      if Bignat.equal da db then (na, nb, da)
      else (Bignat.mul na db, Bignat.mul nb da, Bignat.mul da db)
    in
    if sa = sb then make ~sign:sa ~num:(Bignat.add x y) ~den:d
    else
      let c = Bignat.compare x y in
      if c = 0 then zero
      else if c > 0 then make ~sign:sa ~num:(Bignat.sub x y) ~den:d
      else make ~sign:sb ~num:(Bignat.sub y x) ~den:d

let add a b =
  match (a, b) with
  | S (0, _), x | x, S (0, _) -> x
  | S (na, da), S (nb, db) -> (
      let promote () =
        Obs.incr c_promotions;
        slow_add a b
      in
      if da = db then
        match add_ovf na nb with Some n -> small n da | None -> promote ()
      else
        match (mul_ovf na db, mul_ovf nb da, mul_ovf da db) with
        | Some x, Some y, Some d -> (
            match add_ovf x y with Some n -> small n d | None -> promote ())
        | _ -> promote ())
  | _ -> slow_add a b

let sub a b = add a (neg b)

let slow_mul a b =
  let sa, na, da = big_view a and sb, nb, db = big_view b in
  if sa = 0 || sb = 0 then zero
  else make ~sign:(sa * sb) ~num:(Bignat.mul na nb) ~den:(Bignat.mul da db)

let mul a b =
  match (a, b) with
  | S (0, _), _ | _, S (0, _) -> zero
  | S (1, 1), b -> b
  | a, S (1, 1) -> a
  | S (na, da), S (nb, db) -> (
      (* Cross-reduce before multiplying: keeps the products small and makes
         the result coprime by construction, so no gcd on the way out. *)
      let g1 = igcd (Int.abs na) db and g2 = igcd (Int.abs nb) da in
      let na = na / g1 and db = db / g1 in
      let nb = nb / g2 and da = da / g2 in
      match (mul_ovf na nb, mul_ovf da db) with
      | Some n, Some d -> small_coprime n d
      | _ ->
          Obs.incr c_promotions;
          slow_mul (S (na, da)) (S (nb, db)))
  | _ -> slow_mul a b

let inv a =
  match a with
  | S (0, _) -> raise Division_by_zero
  | S (n, d) -> if n > 0 then S (d, n) else S (-d, -n)
  | B b -> B { b with n = b.d; d = b.n }

let div a b = mul a (inv b)

(* Sign comparison, then cross-multiplied magnitudes — never materializes
   the difference. The small/small case is allocation-free unless the cross
   products overflow. *)
let slow_compare a b =
  let sa, na, da = big_view a and sb, nb, db = big_view b in
  if sa <> sb then Int.compare sa sb
  else if sa = 0 then 0
  else sa * Bignat.compare (Bignat.mul na db) (Bignat.mul nb da)

let compare a b =
  match (a, b) with
  | S (na, da), S (nb, db) -> (
      if da = db then Int.compare na nb
      else
        match (mul_ovf na db, mul_ovf nb da) with
        | Some x, Some y -> Int.compare x y
        | _ ->
            Obs.incr c_promotions;
            slow_compare a b)
  | _ -> slow_compare a b

let equal a b =
  match (a, b) with
  | S (na, da), S (nb, db) -> na = nb && da = db
  | B x, B y -> x.sg = y.sg && Bignat.equal x.n y.n && Bignat.equal x.d y.d
  | _ -> false (* canonical: a value fitting S is never stored as B *)

let max a b = if compare a b >= 0 then a else b
let sum = List.fold_left add zero
let is_proper_prob r = sign r >= 0 && compare r one <= 0

let rec pow a k =
  if k = 0 then one
  else if k < 0 then inv (pow a (-k))
  else
    (* Square-and-multiply through [mul]: stays on the int fast path until a
       product genuinely overflows, then promotes. *)
    let rec go acc base k =
      if k = 0 then acc
      else if k land 1 = 1 then go (mul acc base) (mul base base) (k lsr 1)
      else go acc (mul base base) (k lsr 1)
    in
    go one a k

let to_float r =
  match r with
  | S (n, d) -> float_of_int n /. float_of_int d
  | B { sg; n; d } ->
      let big_to_float b =
        match Bignat.to_int_opt b with
        | Some i -> float_of_int i
        | None ->
            (* Scale down: take the top 52 bits and reapply the exponent. *)
            let nb = Bignat.num_bits b in
            let shift = nb - 52 in
            let top, _ = Bignat.divmod b (Bignat.pow Bignat.two shift) in
            let m =
              match Bignat.to_int_opt top with Some i -> float_of_int i | None -> assert false
            in
            ldexp m shift
      in
      float_of_int sg *. (big_to_float n /. big_to_float d)

let to_bits r =
  let open Cdse_util.Bits in
  let nbits = Bignat.to_bits (num r) and dbits = Bignat.to_bits (den r) in
  concat
    [ singleton (sign r >= 0);
      encode_nat (length nbits);
      nbits;
      encode_nat (length dbits);
      dbits ]

let of_bits bits =
  let open Cdse_util.Bits in
  let r = Reader.make bits in
  let sign_bit = Reader.read_bit r in
  let nlen = Reader.read_nat r in
  let n = Bignat.of_bits (Reader.read_bits nlen r) in
  let dlen = Reader.read_nat r in
  let d = Bignat.of_bits (Reader.read_bits dlen r) in
  if not (Reader.at_end r) then invalid_arg "Rat.of_bits: trailing bits";
  let sign = if Bignat.is_zero n then 0 else if sign_bit then 1 else -1 in
  make ~sign ~num:n ~den:d

let to_string r =
  match r with
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B { sg; n; d } ->
      let base =
        if Bignat.equal d Bignat.one then Bignat.to_string n
        else Bignat.to_string n ^ "/" ^ Bignat.to_string d
      in
      if sg < 0 then "-" ^ base else base

let of_string s =
  let s, sign =
    if String.length s > 0 && s.[0] = '-' then (String.sub s 1 (String.length s - 1), -1)
    else (s, 1)
  in
  match String.index_opt s '/' with
  | None ->
      let n = Bignat.of_string s in
      make ~sign:(if Bignat.is_zero n then 0 else sign) ~num:n ~den:Bignat.one
  | Some i ->
      let n = Bignat.of_string (String.sub s 0 i) in
      let d = Bignat.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make ~sign:(if Bignat.is_zero n then 0 else sign) ~num:n ~den:d

let pp fmt r = Format.pp_print_string fmt (to_string r)

let hash r =
  (* Per-constructor hashing is sound because representation is canonical. *)
  match r with
  | S (n, d) -> Hashtbl.hash (n, d)
  | B { sg; n; d } -> Hashtbl.hash (sg, Bignat.hash n, Bignat.hash d)
