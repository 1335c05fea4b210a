(* Tests for the cdse_prob substrate: bignums, exact rationals, exact
   discrete distributions, statistical distance, deterministic RNG. *)

open Cdse_prob

let qtest = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- Bignat *)

let nat_of = Bignat.of_int

let big_arb =
  (* Bignats well beyond the int range, built multiplicatively. *)
  let gen =
    QCheck.Gen.(
      map2
        (fun a b -> Bignat.mul (Bignat.pow (nat_of a) 7) (nat_of (b + 1)))
        (int_range 2 1000) (int_bound 1000))
  in
  QCheck.make ~print:Bignat.to_string gen

let test_bignat_basics () =
  Alcotest.(check bool) "zero is zero" true (Bignat.is_zero Bignat.zero);
  Alcotest.(check string) "zero" "0" (Bignat.to_string Bignat.zero);
  Alcotest.(check string) "42" "42" (Bignat.to_string (nat_of 42));
  Alcotest.(check (option int)) "to_int" (Some 42) (Bignat.to_int_opt (nat_of 42))

let test_bignat_big_literal () =
  let a = Bignat.of_string "123456789012345678901234567890" in
  Alcotest.(check string) "decimal roundtrip" "123456789012345678901234567890" (Bignat.to_string a);
  Alcotest.(check (option int)) "does not fit" None (Bignat.to_int_opt a);
  let b = Bignat.mul a a in
  Alcotest.(check string) "square"
    "15241578753238836750495351562536198787501905199875019052100"
    (Bignat.to_string b)

let test_bignat_sub_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignat.sub: negative result") (fun () ->
      ignore (Bignat.sub (nat_of 3) (nat_of 5)))

let test_bignat_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Bignat.divmod (nat_of 3) Bignat.zero))

let test_bignat_pow () =
  Alcotest.(check string) "2^100" "1267650600228229401496703205376"
    (Bignat.to_string (Bignat.pow Bignat.two 100))

let prop_nat_add_matches_int =
  QCheck.Test.make ~name:"bignat: add matches int" QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> Bignat.to_int_opt (Bignat.add (nat_of a) (nat_of b)) = Some (a + b))

let prop_nat_mul_matches_int =
  QCheck.Test.make ~name:"bignat: mul matches int" QCheck.(pair (int_bound 100_000) (int_bound 100_000))
    (fun (a, b) -> Bignat.to_int_opt (Bignat.mul (nat_of a) (nat_of b)) = Some (a * b))

let prop_big_add_comm =
  QCheck.Test.make ~name:"bignat: a+b = b+a (big)" (QCheck.pair big_arb big_arb) (fun (a, b) ->
      Bignat.equal (Bignat.add a b) (Bignat.add b a))

let prop_big_mul_assoc =
  QCheck.Test.make ~name:"bignat: (ab)c = a(bc) (big)" (QCheck.triple big_arb big_arb big_arb)
    (fun (a, b, c) -> Bignat.equal (Bignat.mul (Bignat.mul a b) c) (Bignat.mul a (Bignat.mul b c)))

let prop_big_distrib =
  QCheck.Test.make ~name:"bignat: a(b+c) = ab+ac (big)" (QCheck.triple big_arb big_arb big_arb)
    (fun (a, b, c) ->
      Bignat.equal (Bignat.mul a (Bignat.add b c)) (Bignat.add (Bignat.mul a b) (Bignat.mul a c)))

let prop_big_sub_inverse =
  QCheck.Test.make ~name:"bignat: (a+b)-b = a (big)" (QCheck.pair big_arb big_arb) (fun (a, b) ->
      Bignat.equal (Bignat.sub (Bignat.add a b) b) a)

let prop_big_divmod =
  QCheck.Test.make ~name:"bignat: a = q·b + r, r < b (big)" (QCheck.pair big_arb big_arb)
    (fun (a, b) ->
      QCheck.assume (not (Bignat.is_zero b));
      let q, r = Bignat.divmod a b in
      Bignat.equal a (Bignat.add (Bignat.mul q b) r) && Bignat.compare r b < 0)

let prop_big_gcd_divides =
  QCheck.Test.make ~name:"bignat: gcd divides both (big)" (QCheck.pair big_arb big_arb)
    (fun (a, b) ->
      QCheck.assume (not (Bignat.is_zero a) && not (Bignat.is_zero b));
      let g = Bignat.gcd a b in
      let _, r1 = Bignat.divmod a g and _, r2 = Bignat.divmod b g in
      Bignat.is_zero r1 && Bignat.is_zero r2)

let prop_big_string_roundtrip =
  QCheck.Test.make ~name:"bignat: decimal roundtrip (big)" big_arb (fun a ->
      Bignat.equal a (Bignat.of_string (Bignat.to_string a)))

let prop_big_bits_roundtrip =
  QCheck.Test.make ~name:"bignat: bits roundtrip (big)" big_arb (fun a ->
      Bignat.equal a (Bignat.of_bits (Bignat.to_bits a)))

let prop_big_compare_consistent =
  QCheck.Test.make ~name:"bignat: compare vs sub (big)" (QCheck.pair big_arb big_arb)
    (fun (a, b) ->
      let c = Bignat.compare a b in
      if c <= 0 then not (Bignat.is_zero (Bignat.sub b a)) || c = 0 else not (Bignat.is_zero (Bignat.sub a b)))

let prop_shift_is_mul_pow2 =
  QCheck.Test.make ~name:"bignat: shift_left k = ·2^k" (QCheck.pair big_arb (QCheck.int_bound 40))
    (fun (a, k) -> Bignat.equal (Bignat.shift_left a k) (Bignat.mul a (Bignat.pow Bignat.two k)))

(* ------------------------------------------------------------------- Rat *)

let rat_arb =
  let gen =
    QCheck.Gen.(
      map2 (fun n d -> Rat.of_ints n (d + 1)) (int_range (-1000) 1000) (int_bound 1000))
  in
  QCheck.make ~print:Rat.to_string gen

let test_rat_normalization () =
  Alcotest.(check string) "6/8 = 3/4" "3/4" (Rat.to_string (Rat.of_ints 6 8));
  Alcotest.(check string) "-6/8" "-3/4" (Rat.to_string (Rat.of_ints (-6) 8));
  Alcotest.(check string) "6/-8" "-3/4" (Rat.to_string (Rat.of_ints 6 (-8)));
  Alcotest.(check string) "0/5 = 0" "0" (Rat.to_string (Rat.of_ints 0 5));
  Alcotest.(check bool) "1/2 = half" true (Rat.equal Rat.half (Rat.of_ints 1 2))

let test_rat_arith () =
  let third = Rat.of_ints 1 3 in
  Alcotest.(check string) "1/3+1/2" "5/6" (Rat.to_string (Rat.add third Rat.half));
  Alcotest.(check string) "1/3-1/2" "-1/6" (Rat.to_string (Rat.sub third Rat.half));
  Alcotest.(check string) "1/3*1/2" "1/6" (Rat.to_string (Rat.mul third Rat.half));
  Alcotest.(check string) "(1/3)/(1/2)" "2/3" (Rat.to_string (Rat.div third Rat.half));
  Alcotest.(check string) "(1/2)^-2" "4" (Rat.to_string (Rat.pow Rat.half (-2)))

let test_rat_of_string () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Rat.to_string (Rat.of_string s)))
    [ "3/4"; "-3/4"; "7"; "0"; "123456789123456789123456789/2" ]

let test_rat_div_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () -> ignore (Rat.div Rat.one Rat.zero));
  Alcotest.check_raises "inv0" Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let prop_rat_add_assoc =
  QCheck.Test.make ~name:"rat: (a+b)+c = a+(b+c)" (QCheck.triple rat_arb rat_arb rat_arb)
    (fun (a, b, c) -> Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)))

let prop_rat_mul_distrib =
  QCheck.Test.make ~name:"rat: a(b+c) = ab+ac" (QCheck.triple rat_arb rat_arb rat_arb)
    (fun (a, b, c) -> Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_rat_sub_add =
  QCheck.Test.make ~name:"rat: (a-b)+b = a" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
      Rat.equal (Rat.add (Rat.sub a b) b) a)

let prop_rat_div_mul =
  QCheck.Test.make ~name:"rat: (a/b)·b = a" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
      QCheck.assume (not (Rat.is_zero b));
      Rat.equal (Rat.mul (Rat.div a b) b) a)

let prop_rat_compare_antisym =
  QCheck.Test.make ~name:"rat: compare antisymmetric" (QCheck.pair rat_arb rat_arb) (fun (a, b) ->
      Rat.compare a b = -Rat.compare b a)

let prop_rat_to_float =
  QCheck.Test.make ~name:"rat: to_float close" rat_arb (fun a ->
      let f = Rat.to_float a in
      QCheck.assume (not (Rat.is_zero a));
      Float.abs (f -. Rat.to_float a) < 1e-9)

let prop_rat_string_roundtrip =
  QCheck.Test.make ~name:"rat: string roundtrip" rat_arb (fun a ->
      Rat.equal a (Rat.of_string (Rat.to_string a)))

let prop_rat_bits_roundtrip =
  QCheck.Test.make ~name:"rat: bits roundtrip" rat_arb (fun a ->
      Rat.equal a (Rat.of_bits (Rat.to_bits a)))

let test_rat_to_float_huge () =
  (* Exercises the >52-bit mantissa path of to_float. *)
  let huge = Rat.make ~sign:1 ~num:(Bignat.pow Bignat.two 200) ~den:(Bignat.pow Bignat.two 199) in
  Alcotest.(check (float 1e-12)) "2^200/2^199 = 2." 2.0 (Rat.to_float huge)

(* Rationals whose numerator or denominator straddles the native-int
   (Bignat.to_int_opt) boundary, so that arithmetic on them crosses the
   small-int / Bignat promotion edge in both directions. *)
let rat_boundary_arb =
  let gen =
    QCheck.Gen.(
      map
        (fun ((n, d), (k, num_side)) ->
          let base = Rat.of_ints n (d + 1) in
          let big = Rat.pow (Rat.of_int 2) k in
          if num_side then Rat.mul base big else Rat.div base big)
        (pair
           (pair (int_range (-1000) 1000) (int_bound 1000))
           (pair (int_range 55 70) bool)))
  in
  QCheck.make ~print:Rat.to_string gen

let prop_rat_promote_add_sub =
  QCheck.Test.make ~name:"rat: (a+h)-h = a across promotion"
    (QCheck.pair rat_arb rat_boundary_arb) (fun (a, h) ->
      Rat.equal (Rat.sub (Rat.add a h) h) a)

let prop_rat_promote_mul_div =
  QCheck.Test.make ~name:"rat: (a·h)/h = a across promotion"
    (QCheck.pair rat_arb rat_boundary_arb) (fun (a, h) ->
      QCheck.assume (not (Rat.is_zero h));
      Rat.equal (Rat.div (Rat.mul a h) h) a)

let prop_rat_promote_compare =
  QCheck.Test.make ~name:"rat: compare = sign of difference (boundary)"
    (QCheck.pair rat_boundary_arb rat_boundary_arb) (fun (a, b) ->
      Rat.compare a b = Rat.sign (Rat.sub a b))

let prop_rat_promote_pow =
  QCheck.Test.make ~name:"rat: pow agrees with iterated mul (boundary)" rat_boundary_arb
    (fun h -> Rat.equal (Rat.pow h 3) (Rat.mul h (Rat.mul h h)))

let prop_rat_promote_string_roundtrip =
  QCheck.Test.make ~name:"rat: string roundtrip (boundary)" rat_boundary_arb (fun a ->
      Rat.equal a (Rat.of_string (Rat.to_string a)))

let prop_rat_promote_bits_roundtrip =
  QCheck.Test.make ~name:"rat: bits roundtrip (boundary)" rat_boundary_arb (fun a ->
      Rat.equal a (Rat.of_bits (Rat.to_bits a)))

let test_rat_int_edges () =
  (* max_int and min_int operands sit exactly on the Bignat.to_int_opt
     demotion edge (|min_int| = max_int + 1 does not fit a native int). *)
  let maxr = Rat.of_int max_int in
  let above = Rat.add maxr Rat.one in
  Alcotest.(check string) "max_int+1 prints"
    (Bignat.to_string (Bignat.add (Bignat.of_int max_int) Bignat.one))
    (Rat.to_string above);
  Alcotest.(check bool) "demotes back under the edge" true
    (Rat.equal maxr (Rat.sub above Rat.one));
  Alcotest.(check bool) "min_int = -(max_int+1)" true
    (Rat.equal (Rat.of_int min_int) (Rat.neg above));
  Alcotest.(check bool) "compare across the edge" true (Rat.compare maxr above < 0);
  Alcotest.(check string) "min_int/min_int = 1" "1" (Rat.to_string (Rat.of_ints min_int min_int));
  let inv_min = Rat.of_ints 1 min_int in
  Alcotest.(check bool) "1/min_int string roundtrip" true
    (Rat.equal inv_min (Rat.of_string (Rat.to_string inv_min)));
  Alcotest.(check bool) "1/min_int bits roundtrip" true
    (Rat.equal inv_min (Rat.of_bits (Rat.to_bits inv_min)))

(* ------------------------------------------------------------------ Dist *)

let icmp = Int.compare
let d_of l = Dist.make ~compare:icmp (List.map (fun (x, n, d) -> (x, Rat.of_ints n d)) l)

let small_dist_arb =
  (* Proper distributions over small int supports with denominators 1..12. *)
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* xs = list_repeat n (int_bound 8) in
      let* ws = list_repeat n (int_range 1 12) in
      let total = List.fold_left ( + ) 0 ws in
      return
        (Dist.make ~compare:icmp
           (List.map2 (fun x w -> (x, Rat.of_ints w total)) xs ws)))
  in
  QCheck.make ~print:(Format.asprintf "%a" (Dist.pp Format.pp_print_int)) gen

let test_dist_normalize () =
  let d = d_of [ (1, 1, 4); (2, 1, 4); (1, 1, 4); (3, 0, 1); (2, 1, 4) ] in
  Alcotest.(check int) "duplicates merged, zeros dropped" 2 (Dist.size d);
  Alcotest.(check string) "p(1)" "1/2" (Rat.to_string (Dist.prob d 1));
  Alcotest.(check string) "p(2)" "1/2" (Rat.to_string (Dist.prob d 2));
  Alcotest.(check string) "p(3)" "0" (Rat.to_string (Dist.prob d 3));
  Alcotest.(check bool) "proper" true (Dist.is_proper d)

(* Each check runs on ascending input, which [make] copies as it is, and
   on input out of order, which it sorts. *)
let test_dist_rejects () =
  Alcotest.check_raises "mass > 1" (Dist.Invalid "Dist: mass 3/2 exceeds 1") (fun () ->
      ignore (d_of [ (1, 1, 1); (2, 1, 2) ]));
  Alcotest.check_raises "mass > 1, out of order" (Dist.Invalid "Dist: mass 3/2 exceeds 1")
    (fun () -> ignore (d_of [ (3, 1, 4); (1, 1, 1); (2, 1, 4) ]));
  Alcotest.check_raises "negative" (Dist.Invalid "Dist: negative probability -1/2") (fun () ->
      ignore (d_of [ (1, -1, 2) ]));
  Alcotest.check_raises "negative, last of an ascending list"
    (Dist.Invalid "Dist: negative probability -1/4") (fun () ->
      ignore (d_of [ (1, 1, 2); (2, 0, 1); (3, -1, 4) ]));
  Alcotest.check_raises "negative, after the first pair out of order"
    (Dist.Invalid "Dist: negative probability -1/4") (fun () ->
      ignore (d_of [ (2, 1, 2); (1, 1, 4); (3, -1, 4) ]))

let test_dist_dirac () =
  let d = Dist.dirac ~compare:icmp 7 in
  Alcotest.(check bool) "proper" true (Dist.is_proper d);
  Alcotest.(check string) "p(7)" "1" (Rat.to_string (Dist.prob d 7));
  Alcotest.(check (list int)) "support" [ 7 ] (Dist.support d)

let test_dist_subdist () =
  let d = d_of [ (1, 1, 4); (2, 1, 4) ] in
  Alcotest.(check bool) "not proper" false (Dist.is_proper d);
  Alcotest.(check string) "deficit" "1/2" (Rat.to_string (Dist.deficit d))

let test_dist_product () =
  let a = d_of [ (0, 1, 2); (1, 1, 2) ] in
  let b = d_of [ (0, 1, 3); (1, 2, 3) ] in
  let p = Dist.product a b in
  Alcotest.(check int) "4 outcomes" 4 (Dist.size p);
  Alcotest.(check string) "p(1,1)" "1/3" (Rat.to_string (Dist.prob p (1, 1)));
  Alcotest.(check string) "p(0,0)" "1/6" (Rat.to_string (Dist.prob p (0, 0)))

let test_dist_product_list () =
  let coin = d_of [ (0, 1, 2); (1, 1, 2) ] in
  let p = Dist.product_list ~compare:icmp [ coin; coin; coin ] in
  Alcotest.(check int) "8 outcomes" 8 (Dist.size p);
  Alcotest.(check string) "p[1;0;1]" "1/8" (Rat.to_string (Dist.prob p [ 1; 0; 1 ]))

let test_dist_large_support () =
  (* Regression: the old list-based normalization recursed per support point
     (non-tail merge) and overflowed the stack around ~100k entries; the
     array representation must handle this size comfortably. *)
  let n = 100_000 in
  let p = Rat.of_ints 1 n in
  let d = Dist.make ~compare:icmp (List.init n (fun i -> (i, p))) in
  Alcotest.(check int) "size" n (Dist.size d);
  Alcotest.(check bool) "proper" true (Dist.is_proper d);
  Alcotest.(check string) "prob of a point" (Rat.to_string p) (Rat.to_string (Dist.prob d 54321));
  (* Duplicate-heavy input: every element appears twice, merged pairwise. *)
  let dup = List.init (2 * n) (fun i -> (i mod n, Rat.of_ints 1 (2 * n))) in
  let d2 = Dist.make ~compare:icmp dup in
  Alcotest.(check int) "merged size" n (Dist.size d2);
  Alcotest.(check bool) "merged proper" true (Dist.is_proper d2)

let test_dist_corresponds () =
  (* Definition 2.15: η ↔_f η'. *)
  let a = d_of [ (1, 1, 3); (2, 2, 3) ] in
  let b = d_of [ (10, 1, 3); (20, 2, 3) ] in
  Alcotest.(check bool) "bijective preserving" true (Dist.corresponds ~f:(fun x -> x * 10) a b);
  Alcotest.(check bool) "non-injective fails" false
    (Dist.corresponds ~f:(fun _ -> 10) a (Dist.dirac ~compare:icmp 10) = false |> not);
  let b' = d_of [ (10, 2, 3); (20, 1, 3) ] in
  Alcotest.(check bool) "probability mismatch fails" false (Dist.corresponds ~f:(fun x -> x * 10) a b')

let prop_dist_map_mass =
  QCheck.Test.make ~name:"dist: pushforward preserves mass" small_dist_arb (fun d ->
      Rat.equal (Dist.mass d) (Dist.mass (Dist.map ~compare:icmp (fun x -> x mod 3) d)))

let prop_dist_bind_mass =
  QCheck.Test.make ~name:"dist: bind of proper is proper" small_dist_arb (fun d ->
      let f x = Dist.uniform ~compare:icmp [ x; x + 1 ] in
      Dist.is_proper (Dist.bind ~compare:icmp d f))

let prop_dist_product_mass =
  QCheck.Test.make ~name:"dist: product mass multiplies" (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) -> Rat.equal (Dist.mass (Dist.product a b)) (Rat.mul (Dist.mass a) (Dist.mass b)))

let prop_dist_expect_const =
  QCheck.Test.make ~name:"dist: E[c] = c·mass" small_dist_arb (fun d ->
      Rat.equal (Dist.expect (fun _ -> Rat.of_int 5) d) (Rat.mul (Rat.of_int 5) (Dist.mass d)))

(* [Dist.make] has one normal form whatever order its input comes in: a
   list, its sort by element and its reverse give the same entries in the
   same order with the same exact mass. The lists carry duplicate
   elements, zero entries and equal masses on distinct elements; a sorted
   list without duplicates takes [make]'s path that does not sort. *)
let prop_dist_make_order_free =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 10 in
      let* xs = list_repeat n (int_bound 20) in
      let* ws = list_repeat n (int_bound 3) in
      return (List.map2 (fun x w -> (x, Rat.of_ints w (3 * n))) xs ws))
  in
  let print l =
    String.concat "; "
      (List.map (fun (x, p) -> Printf.sprintf "%d:%s" x (Rat.to_string p)) l)
  in
  QCheck.Test.make ~count:500 ~name:"dist: make's normal form does not depend on input order"
    (QCheck.make ~print gen) (fun l ->
      let d = Dist.make ~compare:icmp l in
      let same l' =
        let d' = Dist.make ~compare:icmp l' in
        Rat.equal (Dist.mass d) (Dist.mass d')
        && List.equal
             (fun (x, p) (y, q) -> x = y && Rat.equal p q)
             (Dist.items d) (Dist.items d')
      in
      same (List.stable_sort (fun (x, _) (y, _) -> icmp x y) l) && same (List.rev l))

let prop_dist_filter_le =
  QCheck.Test.make ~name:"dist: filter shrinks mass" small_dist_arb (fun d ->
      Rat.compare (Dist.mass (Dist.filter (fun x -> x mod 2 = 0) d)) (Dist.mass d) <= 0)

(* ------------------------------------------------------------------ Stat *)

let test_tv_identical () =
  let d = d_of [ (1, 1, 2); (2, 1, 2) ] in
  Alcotest.(check string) "d(d,d) = 0" "0" (Rat.to_string (Stat.tv_distance d d))

let test_tv_disjoint () =
  let a = d_of [ (1, 1, 1) ] and b = d_of [ (2, 1, 1) ] in
  Alcotest.(check string) "disjoint = 1" "1" (Rat.to_string (Stat.tv_distance a b))

let test_tv_exact_value () =
  let a = d_of [ (1, 1, 2); (2, 1, 2) ] in
  let b = d_of [ (1, 1, 4); (2, 3, 4) ] in
  Alcotest.(check string) "1/4" "1/4" (Rat.to_string (Stat.tv_distance a b));
  Alcotest.(check string) "l1 = 1/2" "1/2" (Rat.to_string (Stat.l1_distance a b))

let test_tv_subdist_deficit () =
  (* A halting deficit is distinguishable mass. *)
  let a = d_of [ (1, 1, 1) ] and b = d_of [ (1, 1, 2) ] in
  Alcotest.(check string) "deficit counts" "1/2" (Rat.to_string (Stat.tv_distance a b))

let prop_tv_symmetric =
  QCheck.Test.make ~name:"stat: d(a,b) = d(b,a)" (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) -> Rat.equal (Stat.tv_distance a b) (Stat.tv_distance b a))

let prop_tv_triangle =
  QCheck.Test.make ~name:"stat: triangle inequality"
    (QCheck.triple small_dist_arb small_dist_arb small_dist_arb)
    (fun (a, b, c) ->
      Rat.compare (Stat.tv_distance a c) (Rat.add (Stat.tv_distance a b) (Stat.tv_distance b c)) <= 0)

let prop_tv_bounded =
  QCheck.Test.make ~name:"stat: 0 ≤ d ≤ 1" (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) ->
      let d = Stat.tv_distance a b in
      Rat.sign d >= 0 && Rat.compare d Rat.one <= 0)

let prop_tv_balanced_consistent =
  QCheck.Test.make ~name:"stat: balanced agrees with distance" (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) -> Stat.balanced ~eps:(Stat.tv_distance a b) a b)

let prop_max_gap_bounded_by_sup =
  QCheck.Test.make ~name:"stat: pointwise gap ≤ sup-set distance"
    (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) ->
      match Stat.max_gap_point a b with
      | None -> true
      | Some (_, g) -> Rat.compare g (Stat.sup_set_distance a b) <= 0)

let prop_sup_le_l1_le_2sup =
  QCheck.Test.make ~name:"stat: sup ≤ L1 ≤ 2·sup" (QCheck.pair small_dist_arb small_dist_arb)
    (fun (a, b) ->
      let sup = Stat.sup_set_distance a b and l1 = Stat.l1_distance a b in
      Rat.compare sup l1 <= 0 && Rat.compare l1 (Rat.mul (Rat.of_int 2) sup) <= 0)

let test_exact_geometric_sum () =
  (* Σ_{k=1..60} 2^-k + 2^-60 = 1 exactly: the kind of telescoping the
     measure computations rely on, far beyond float precision. *)
  let terms = List.init 60 (fun k -> Rat.pow Rat.half (k + 1)) in
  let total = Rat.add (Rat.sum terms) (Rat.pow Rat.half 60) in
  Alcotest.(check string) "exactly 1" "1" (Rat.to_string total)

(* ------------------------------------------------------------------- Rng *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b)

let test_rng_bounds () =
  let r = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of bounds"
  done

let test_rng_split_independent () =
  let r = Rng.make 1 in
  let a, b = Rng.split r in
  let sa = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let sb = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "streams differ" true (sa <> sb)

let test_rng_shuffle_permutes () =
  let r = Rng.make 3 in
  let l = List.init 10 Fun.id in
  let s = Rng.shuffle r l in
  Alcotest.(check (list int)) "same multiset" l (List.sort Int.compare s)

let test_dist_sample_support () =
  let r = Rng.make 5 in
  let d = d_of [ (1, 1, 3); (2, 2, 3) ] in
  for _ = 1 to 200 do
    match Dist.sample r d with
    | Some x when x = 1 || x = 2 -> ()
    | Some _ -> Alcotest.fail "sample outside support"
    | None -> Alcotest.fail "proper dist halted"
  done

(* Exactness of the inverse-CDF draw: enumerate the complete fair-bit tree
   to depth 30, driving [sample_bits] with every prefix. A node whose bits
   run out before the draw resolves splits into its two children; a
   resolved node contributes its dyadic interval's width 2^-|prefix| to
   its outcome. The mass resolved to outcome 1 must bracket 1/3 to within
   the unresolved remainder (≤ 2^-30 ≈ 9.3e-10) — three orders of
   magnitude below the old sampler's fixed 1/1_000_003 grid spacing, which
   could only realize probabilities that are multiples of the grid. *)
let test_sample_exact_bernoulli_third () =
  let d = d_of [ (1, 1, 3); (2, 2, 3) ] in
  let depth = 30 in
  let p1 = ref Rat.zero and p2 = ref Rat.zero and unresolved = ref Rat.zero in
  let exception Out_of_bits in
  let rec go prefix w =
    let rest = ref prefix in
    let bit () =
      match !rest with
      | b :: tl ->
          rest := tl;
          b
      | [] -> raise Out_of_bits
    in
    match Dist.sample_bits bit d with
    | Some 1 -> p1 := Rat.add !p1 w
    | Some 2 -> p2 := Rat.add !p2 w
    | Some _ | None -> Alcotest.fail "sampler left the support"
    | exception Out_of_bits ->
        if List.length prefix = depth then unresolved := Rat.add !unresolved w
        else begin
          let w' = Rat.mul w Rat.half in
          go (prefix @ [ false ]) w';
          go (prefix @ [ true ]) w'
        end
  in
  go [] Rat.one;
  let third = Rat.of_ints 1 3 and two_thirds = Rat.of_ints 2 3 in
  let tol = Rat.pow Rat.half depth in
  Alcotest.(check bool) "accounts all mass" true
    (Rat.equal Rat.one (Rat.add !p1 (Rat.add !p2 !unresolved)));
  Alcotest.(check bool) "unresolved ≤ 2^-30" true (Rat.compare !unresolved tol <= 0);
  Alcotest.(check bool) "p(1) ≤ 1/3" true (Rat.compare !p1 third <= 0);
  Alcotest.(check bool) "1/3 ≤ p(1) + unresolved" true
    (Rat.compare third (Rat.add !p1 !unresolved) <= 0);
  Alcotest.(check bool) "p(2) ≤ 2/3" true (Rat.compare !p2 two_thirds <= 0);
  Alcotest.(check bool) "2/3 ≤ p(2) + unresolved" true
    (Rat.compare two_thirds (Rat.add !p2 !unresolved) <= 0)

(* Regression against the fixed-grid sampler. An event of probability
   2^-60 sits far below the old 1/1_000_003 grid; the old implementation
   selected it whenever [Rng.int rng 1_000_003] drew 0 — about 2^40 times
   too often — and each seed below makes that happen on the very first
   draw, so the old sampler deterministically returned [Some 0] where an
   exact draw almost surely returns [Some 1]. *)
let test_sample_subgrid_exact () =
  let tiny = Rat.pow Rat.half 60 in
  let d = Dist.make ~compare:icmp [ (0, tiny); (1, Rat.sub Rat.one tiny) ] in
  List.iter
    (fun seed ->
      let r = Rng.make seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d draws the heavy outcome" seed)
        true
        (Dist.sample r d = Some 1))
    [ 334872; 1572239; 4876451 ];
  (* The tiny outcome stays reachable with exactly its mass: the all-zeros
     bit path pins the draw into [0, 2^-60) after exactly 60 bits. *)
  let zeros = ref 0 in
  let bit () =
    incr zeros;
    false
  in
  Alcotest.(check bool) "60 zero bits reach the 2^-60 event" true
    (Dist.sample_bits bit d = Some 0);
  Alcotest.(check int) "after exactly 60 bits" 60 !zeros

let test_sample_bits_deficit () =
  (* Sub-distribution {1 ↦ 1/2}: the halting band [1/2, 1) gets exactly
     the deficit. One bit decides. *)
  let d = d_of [ (1, 1, 2) ] in
  let src l =
    let r = ref l in
    fun () ->
      match !r with
      | b :: tl ->
          r := tl;
          b
      | [] -> Alcotest.fail "sampler demanded more bits than provided"
  in
  Alcotest.(check bool) "upper half halts" true (Dist.sample_bits (src [ true ]) d = None);
  Alcotest.(check bool) "lower half draws" true (Dist.sample_bits (src [ false ]) d = Some 1)

let prop_sample_chi_square =
  QCheck.Test.make ~count:20 ~name:"dist: sample frequencies pass chi-square" small_dist_arb
    (fun d ->
      let n = 2000 in
      let seed = Hashtbl.hash (Format.asprintf "%a" (Dist.pp Format.pp_print_int) d) in
      let r = Rng.make seed in
      let tbl = Hashtbl.create 8 in
      for _ = 1 to n do
        let k = Dist.sample r d in
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      done;
      (* χ² over the support cells plus the halting cell; with at most 5
         degrees of freedom, 35 is beyond the 99.999th percentile, so a
         failure indicates real bias rather than sampling noise. *)
      let cells =
        (None, Dist.deficit d) :: List.map (fun (x, p) -> (Some x, p)) (Dist.items d)
      in
      let ok_zero_cells =
        List.for_all
          (fun (k, p) -> not (Rat.is_zero p) || not (Hashtbl.mem tbl k))
          cells
      in
      let chi2 =
        List.fold_left
          (fun acc (k, p) ->
            if Rat.is_zero p then acc
            else
              let e = float_of_int n *. Rat.to_float p in
              let o = float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
              acc +. (((o -. e) ** 2.0) /. e))
          0.0 cells
      in
      ok_zero_cells && chi2 < 35.0)

(* ----------------------------------------------------------------- Fprob *)

let test_fprob_agrees_with_exact () =
  let d = d_of [ (1, 1, 2); (2, 1, 3); (3, 1, 6) ] in
  let e = d_of [ (1, 1, 3); (2, 1, 3); (3, 1, 3) ] in
  let exact = Rat.to_float (Stat.tv_distance d e) in
  let approx = Fprob.tv_distance (Fprob.of_exact d) (Fprob.of_exact e) in
  Alcotest.(check (float 1e-9)) "float tv matches exact" exact approx

let () =
  Alcotest.run "cdse_prob"
    [ ( "bignat",
        [ Alcotest.test_case "basics" `Quick test_bignat_basics;
          Alcotest.test_case "big literal" `Quick test_bignat_big_literal;
          Alcotest.test_case "sub rejects negative" `Quick test_bignat_sub_negative;
          Alcotest.test_case "div by zero" `Quick test_bignat_div_by_zero;
          Alcotest.test_case "pow" `Quick test_bignat_pow;
          qtest prop_nat_add_matches_int;
          qtest prop_nat_mul_matches_int;
          qtest prop_big_add_comm;
          qtest prop_big_mul_assoc;
          qtest prop_big_distrib;
          qtest prop_big_sub_inverse;
          qtest prop_big_divmod;
          qtest prop_big_gcd_divides;
          qtest prop_big_string_roundtrip;
          qtest prop_big_bits_roundtrip;
          qtest prop_big_compare_consistent;
          qtest prop_shift_is_mul_pow2 ] );
      ( "rat",
        [ Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "division by zero" `Quick test_rat_div_zero;
          Alcotest.test_case "to_float huge" `Quick test_rat_to_float_huge;
          qtest prop_rat_add_assoc;
          qtest prop_rat_mul_distrib;
          qtest prop_rat_sub_add;
          qtest prop_rat_div_mul;
          qtest prop_rat_compare_antisym;
          qtest prop_rat_to_float;
          qtest prop_rat_string_roundtrip;
          qtest prop_rat_bits_roundtrip;
          Alcotest.test_case "native-int edges" `Quick test_rat_int_edges;
          qtest prop_rat_promote_add_sub;
          qtest prop_rat_promote_mul_div;
          qtest prop_rat_promote_compare;
          qtest prop_rat_promote_pow;
          qtest prop_rat_promote_string_roundtrip;
          qtest prop_rat_promote_bits_roundtrip ] );
      ( "dist",
        [ Alcotest.test_case "normalize" `Quick test_dist_normalize;
          Alcotest.test_case "rejects invalid" `Quick test_dist_rejects;
          Alcotest.test_case "dirac" `Quick test_dist_dirac;
          Alcotest.test_case "sub-distribution" `Quick test_dist_subdist;
          Alcotest.test_case "product" `Quick test_dist_product;
          Alcotest.test_case "product_list" `Quick test_dist_product_list;
          Alcotest.test_case "large support (100k)" `Quick test_dist_large_support;
          Alcotest.test_case "corresponds (Def 2.15)" `Quick test_dist_corresponds;
          Alcotest.test_case "sample stays in support" `Quick test_dist_sample_support;
          Alcotest.test_case "sample_bits exact (Bernoulli 1/3)" `Quick
            test_sample_exact_bernoulli_third;
          Alcotest.test_case "sample sub-grid event exactness" `Quick test_sample_subgrid_exact;
          Alcotest.test_case "sample_bits deficit band" `Quick test_sample_bits_deficit;
          qtest prop_sample_chi_square;
          qtest prop_dist_map_mass;
          qtest prop_dist_bind_mass;
          qtest prop_dist_product_mass;
          qtest prop_dist_expect_const;
          qtest prop_dist_filter_le;
          qtest prop_dist_make_order_free ] );
      ( "stat",
        [ Alcotest.test_case "identical" `Quick test_tv_identical;
          Alcotest.test_case "disjoint" `Quick test_tv_disjoint;
          Alcotest.test_case "exact value" `Quick test_tv_exact_value;
          Alcotest.test_case "deficit counts" `Quick test_tv_subdist_deficit;
          qtest prop_tv_symmetric;
          qtest prop_tv_triangle;
          qtest prop_tv_bounded;
          qtest prop_tv_balanced_consistent;
          qtest prop_sup_le_l1_le_2sup;
          qtest prop_max_gap_bounded_by_sup;
          Alcotest.test_case "exact geometric telescoping" `Quick test_exact_geometric_sum ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes ] );
      ("fprob", [ Alcotest.test_case "agrees with exact" `Quick test_fprob_agrees_with_exact ]) ]
