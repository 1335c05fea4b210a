(* Tests for the cdse_util substrate: bit strings, cost meter, polynomials,
   comparator combinators. *)

open Cdse_util

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ Bits *)

let bits_gen = QCheck.Gen.(map Bits.of_bool_list (small_list bool))
let bits_arb = QCheck.make ~print:Bits.to_string bits_gen

let test_bits_empty () =
  Alcotest.(check int) "length empty" 0 (Bits.length Bits.empty);
  Alcotest.(check string) "string empty" "" (Bits.to_string Bits.empty)

let test_bits_of_string () =
  let b = Bits.of_string "010110" in
  Alcotest.(check int) "length" 6 (Bits.length b);
  Alcotest.(check bool) "bit0" false (Bits.get b 0);
  Alcotest.(check bool) "bit1" true (Bits.get b 1);
  Alcotest.(check bool) "bit5" false (Bits.get b 5);
  Alcotest.(check string) "roundtrip" "010110" (Bits.to_string b)

let test_bits_of_string_bad () =
  Alcotest.check_raises "bad char" (Invalid_argument "Bits.of_string: bad char '2'") (fun () ->
      ignore (Bits.of_string "012"))

let test_bits_get_oob () =
  let b = Bits.of_string "01" in
  Alcotest.check_raises "oob" (Invalid_argument "Bits.get: index out of range") (fun () ->
      ignore (Bits.get b 2))

let test_bits_int_roundtrip () =
  List.iter
    (fun (w, n) ->
      Alcotest.(check int)
        (Printf.sprintf "width %d value %d" w n)
        n
        (Bits.to_int (Bits.of_int ~width:w n)))
    [ (0, 0); (1, 1); (8, 255); (8, 0); (16, 12345); (31, 1 lsl 30); (62, (1 lsl 61) + 17) ]

let test_bits_append () =
  let a = Bits.of_string "01" and b = Bits.of_string "110" in
  Alcotest.(check string) "append" "01110" (Bits.to_string (Bits.append a b));
  Alcotest.(check string) "append empty l" "01" (Bits.to_string (Bits.append Bits.empty a));
  Alcotest.(check string) "append empty r" "01" (Bits.to_string (Bits.append a Bits.empty))

let prop_bits_bool_roundtrip =
  QCheck.Test.make ~name:"bits: bool list roundtrip" QCheck.(small_list bool) (fun l ->
      Bits.to_bool_list (Bits.of_bool_list l) = l)

let prop_bits_append_length =
  QCheck.Test.make ~name:"bits: |a·b| = |a| + |b|" (QCheck.pair bits_arb bits_arb) (fun (a, b) ->
      Bits.length (Bits.append a b) = Bits.length a + Bits.length b)

let prop_bits_append_assoc =
  QCheck.Test.make ~name:"bits: append associative" (QCheck.triple bits_arb bits_arb bits_arb)
    (fun (a, b, c) ->
      Bits.equal (Bits.append a (Bits.append b c)) (Bits.append (Bits.append a b) c))

let prop_bits_compare_total =
  QCheck.Test.make ~name:"bits: compare antisymmetric" (QCheck.pair bits_arb bits_arb)
    (fun (a, b) -> Bits.compare a b = -Bits.compare b a)

let prop_encode_nat_roundtrip =
  QCheck.Test.make ~name:"bits: encode_nat/read_nat roundtrip" QCheck.(int_bound 100_000)
    (fun n ->
      let r = Bits.Reader.make (Bits.encode_nat n) in
      let v = Bits.Reader.read_nat r in
      v = n && Bits.Reader.at_end r)

let prop_encode_nat_self_delimiting =
  QCheck.Test.make ~name:"bits: encode_nat is a prefix code"
    QCheck.(pair (int_bound 5000) (int_bound 5000))
    (fun (n, m) ->
      let joined = Bits.append (Bits.encode_nat n) (Bits.encode_nat m) in
      let r = Bits.Reader.make joined in
      Bits.Reader.read_nat r = n && Bits.Reader.read_nat r = m && Bits.Reader.at_end r)

let test_reader_sequence () =
  let b = Bits.concat [ Bits.of_int ~width:4 0b1010; Bits.encode_nat 7; Bits.of_string "11" ] in
  let r = Bits.Reader.make b in
  Alcotest.(check int) "int" 0b1010 (Bits.Reader.read_int ~width:4 r);
  Alcotest.(check int) "nat" 7 (Bits.Reader.read_nat r);
  Alcotest.(check bool) "bit" true (Bits.Reader.read_bit r);
  Alcotest.(check bool) "bit2" true (Bits.Reader.read_bit r);
  Alcotest.(check bool) "end" true (Bits.Reader.at_end r)

let prop_bits_compare_is_string_order =
  QCheck.Test.make ~name:"bits: compare is string order at equal length"
    QCheck.(pair (int_bound 40) (pair (list_of_size (Gen.return 40) bool) (list_of_size (Gen.return 40) bool)))
    (fun (n, (l1, l2)) ->
      let take l = List.filteri (fun i _ -> i < n) l in
      let a = Bits.of_bool_list (take l1) and b = Bits.of_bool_list (take l2) in
      Int.compare (Bits.compare a b) 0
      = Int.compare (String.compare (Bits.to_string a) (Bits.to_string b)) 0)

let prop_bits_concat_is_string_concat =
  QCheck.Test.make ~name:"bits: concat is string concatenation" (QCheck.small_list bits_arb)
    (fun l ->
      Bits.to_string (Bits.concat l) = String.concat "" (List.map Bits.to_string l))

(* The same bits built from different splits — pieces written at
   byte-aligned and unaligned offsets — are [equal] and compare 0. *)
let prop_bits_equal_across_splits =
  QCheck.Test.make ~name:"bits: equal across splits" QCheck.(pair bits_arb (pair small_nat small_nat))
    (fun (b, (i, j)) ->
      let s = Bits.to_string b in
      let n = String.length s in
      let i = min i n in
      let j = i + min j (n - i) in
      let piece a z = Bits.of_string (String.sub s a (z - a)) in
      let split = Bits.concat [ piece 0 i; piece i j; piece j n ] in
      let w = Bits.Writer.create ~capacity:1 () in
      String.iter (fun c -> Bits.Writer.bit w (c = '1')) (String.sub s 0 i);
      Bits.Writer.bits w (piece i n);
      let written = Bits.Writer.contents w in
      Bits.equal b split && Bits.equal b written && Bits.compare b split = 0
      && Bits.equal b (Bits.append (piece 0 i) (piece i n)))

let test_writer_matches_wrappers () =
  let w = Bits.Writer.create () in
  Bits.Writer.bit w true;
  Bits.Writer.int ~width:5 w 3;
  Bits.Writer.nat w 6;
  Bits.Writer.int ~width:62 w (-1);
  Bits.Writer.bits w (Bits.of_string "0110");
  let expected =
    Bits.concat
      [ Bits.singleton true; Bits.of_int ~width:5 3; Bits.encode_nat 6;
        Bits.of_int ~width:62 (-1); Bits.of_string "0110" ]
  in
  Alcotest.(check string) "writer" (Bits.to_string expected) (Bits.to_string (Bits.Writer.contents w));
  Alcotest.(check string) "of_int masks" "00011" (Bits.to_string (Bits.of_int ~width:5 3));
  Alcotest.(check string) "encode_nat 6" "00111" (Bits.to_string (Bits.encode_nat 6));
  Alcotest.check_raises "nat max_int" (Invalid_argument "Bits.Writer.nat: max_int has no encoding")
    (fun () -> ignore (Bits.encode_nat max_int))

(* ------------------------------------------------------------------ Cost *)

let test_cost_basic () =
  Cost.reset ();
  Cost.tick ();
  Cost.tick ~n:4 ();
  Alcotest.(check int) "meter" 5 (Cost.get ())

let test_cost_measure_nested () =
  Cost.reset ();
  Cost.tick ~n:3 ();
  let (), inner =
    Cost.measure (fun () ->
        Cost.tick ~n:10 ();
        let (), deeper = Cost.measure (fun () -> Cost.tick ~n:2 ()) in
        Alcotest.(check int) "deeper" 2 deeper)
  in
  Alcotest.(check int) "inner includes nested" 12 inner;
  Alcotest.(check int) "outer accumulates" 15 (Cost.get ())

let test_cost_measure_exn () =
  Cost.reset ();
  Cost.tick ~n:3 ();
  (try
     ignore
       (Cost.measure (fun () ->
            Cost.tick ~n:7 ();
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "meter restored + spent" 10 (Cost.get ())

(* ------------------------------------------------------------------ Poly *)

let test_poly_eval () =
  let p = Poly.of_coeffs [ 1; 2; 3 ] in
  Alcotest.(check int) "p(0)" 1 (Poly.eval p 0);
  Alcotest.(check int) "p(1)" 6 (Poly.eval p 1);
  Alcotest.(check int) "p(2)" 17 (Poly.eval p 2);
  Alcotest.(check int) "degree" 2 (Poly.degree p)

let test_poly_normalize () =
  Alcotest.(check (list int)) "trailing zeros dropped" [ 1 ] (Poly.coeffs (Poly.of_coeffs [ 1; 0; 0 ]));
  Alcotest.(check int) "zero degree" (-1) (Poly.degree (Poly.of_coeffs [ 0; 0 ]))

let test_poly_negative () =
  Alcotest.check_raises "negative coeff" (Invalid_argument "Poly.of_coeffs: negative coefficient")
    (fun () -> ignore (Poly.of_coeffs [ 1; -2 ]))

let small_poly_gen = QCheck.Gen.(map Poly.of_coeffs (list_size (int_bound 4) (int_bound 5)))
let poly_arb = QCheck.make ~print:(Format.asprintf "%a" Poly.pp) small_poly_gen

let prop_poly_add =
  QCheck.Test.make ~name:"poly: (p+q)(k) = p(k)+q(k)"
    QCheck.(triple poly_arb poly_arb (int_bound 10))
    (fun (p, q, k) -> Poly.eval (Poly.add p q) k = Poly.eval p k + Poly.eval q k)

let prop_poly_mul =
  QCheck.Test.make ~name:"poly: (p·q)(k) = p(k)·q(k)"
    QCheck.(triple poly_arb poly_arb (int_bound 10))
    (fun (p, q, k) -> Poly.eval (Poly.mul p q) k = Poly.eval p k * Poly.eval q k)

let prop_poly_compose =
  QCheck.Test.make ~name:"poly: (p∘q)(k) = p(q(k))"
    QCheck.(triple poly_arb poly_arb (int_bound 6))
    (fun (p, q, k) -> Poly.eval (Poly.compose p q) k = Poly.eval p (Poly.eval q k))

let test_poly_dominates () =
  let p = Poly.of_coeffs [ 0; 0; 1 ] in
  Alcotest.(check bool) "k² dominates 2k from 2" true (Poly.dominates p (fun k -> 2 * k) ~from:2 ~upto:50);
  Alcotest.(check bool) "k² fails vs 2k at 1" false (Poly.dominates p (fun k -> 2 * k) ~from:1 ~upto:50)

let test_pretty_table_renders () =
  let buf = Buffer.create 64 in
  let out = Format.formatter_of_buffer buf in
  Pretty.table ~out ~header:[ "col"; "value" ] [ [ "a"; "1" ]; [ "bbbb"; "22" ] ];
  Format.pp_print_flush out ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "header present" true (Astring.String.is_infix ~affix:"col" s);
  Alcotest.(check bool) "columns padded" true (Astring.String.is_infix ~affix:"bbbb  22" s)

(* ----------------------------------------------------------------- Order *)

let test_order_pair () =
  let cmp = Order.pair Int.compare String.compare in
  Alcotest.(check bool) "fst dominates" true (cmp (1, "z") (2, "a") < 0);
  Alcotest.(check bool) "snd breaks ties" true (cmp (1, "a") (1, "b") < 0);
  Alcotest.(check int) "equal" 0 (cmp (1, "a") (1, "a"))

let test_order_list () =
  let cmp = Order.list Int.compare in
  Alcotest.(check bool) "prefix smaller" true (cmp [ 1 ] [ 1; 2 ] < 0);
  Alcotest.(check bool) "lex" true (cmp [ 1; 3 ] [ 2 ] < 0);
  Alcotest.(check int) "equal" 0 (cmp [ 1; 2 ] [ 1; 2 ])

let test_order_lex_triple_by () =
  let lex = Order.lex [ Order.by fst Int.compare; Order.by snd String.compare ] in
  Alcotest.(check bool) "lex primary" true (lex (1, "z") (2, "a") < 0);
  Alcotest.(check bool) "lex secondary" true (lex (1, "a") (1, "b") < 0);
  let t = Order.triple Int.compare Int.compare Int.compare in
  Alcotest.(check bool) "triple third breaks" true (t (1, 2, 3) (1, 2, 4) < 0);
  Alcotest.(check int) "triple equal" 0 (t (1, 2, 3) (1, 2, 3))

let test_order_option () =
  let cmp = Order.option Int.compare in
  Alcotest.(check bool) "none smallest" true (cmp None (Some 0) < 0);
  Alcotest.(check int) "some eq" 0 (cmp (Some 3) (Some 3))

(* ------------------------------------------------------------------ Json *)

(* Raw-free (parse never yields [Raw]), finite numbers; strings and keys
   over all 256 bytes, so quotes, backslashes and control characters go
   through the escape and unescape paths. *)
let json_gen =
  QCheck.Gen.(
    let any_string = string_size ~gen:char (int_bound 12) in
    let num =
      oneof
        [ map float_of_int (int_range (-1_000_000) 1_000_000);
          float_range (-1e20) 1e20;
          map (fun f -> f *. 1e-9) (float_range (-1.) 1.) ]
    in
    sized
    @@ fix (fun self n ->
           let base =
             oneof
               [ return Json.Null; map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) num; map (fun s -> Json.Str s) any_string ]
           in
           if n = 0 then base
           else
             frequency
               [ (2, base);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 3))));
                 (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair any_string (self (n / 3))))) ]))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string j) = j" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun j -> Json.parse (Json.to_string j) = j)

let test_json_errors () =
  List.iter
    (fun (input, msg) ->
      Alcotest.check_raises input (Json.Parse_error msg) (fun () -> ignore (Json.parse input)))
    [ ({|"abc|}, "unterminated string at offset 4");
      ({|"ab\n|}, "unterminated string at offset 5");
      ({|"abc\|}, "unterminated escape at offset 5");
      ({|"a\qb"|}, "bad escape \\q at offset 3");
      ({|"\u12"|}, "truncated \\u escape at offset 2");
      ({|{"a":1} x|}, "trailing content at offset 8");
      ({|["a",|}, "unexpected end of input at offset 5");
      ({|{"a" 1}|}, "expected : at offset 5");
      ({|[1 2]|}, "expected ] at offset 3") ]

(* [Raw] payloads are copied verbatim, [to_buffer] appends exactly what
   [to_string] returns, and [iter_parts] cuts that text around each [Raw]
   payload, handing over the payload itself. *)
let test_json_raw_and_to_buffer () =
  let body = Json.to_string (Json.Obj [ ("d", Json.Str (String.make 5000 '1')) ]) in
  let reply = Json.Obj [ ("id", Json.Num 1.); ("result", Json.Raw body); ("tail", Json.Raw "[1]") ] in
  let expected = {|{"id":1,"result":|} ^ body ^ {|,"tail":[1]}|} in
  Alcotest.(check string) "raw verbatim" expected (Json.to_string reply);
  let b = Buffer.create 1 in
  Buffer.add_string b "x";
  Json.to_buffer b reply;
  Json.to_buffer b Json.Null;
  Alcotest.(check string) "to_buffer appends" ("x" ^ expected ^ "null") (Buffer.contents b);
  let parts = ref [] in
  Json.iter_parts (fun s -> parts := s :: !parts) reply;
  let parts = List.rev !parts in
  Alcotest.(check string) "parts concatenate to to_string" expected (String.concat "" parts);
  Alcotest.(check bool) "the body is handed over, not copied" true (List.memq body parts)

let () =
  Alcotest.run "cdse_util"
    [ ( "bits",
        [ Alcotest.test_case "empty" `Quick test_bits_empty;
          Alcotest.test_case "of_string" `Quick test_bits_of_string;
          Alcotest.test_case "of_string rejects" `Quick test_bits_of_string_bad;
          Alcotest.test_case "get out of bounds" `Quick test_bits_get_oob;
          Alcotest.test_case "int roundtrips" `Quick test_bits_int_roundtrip;
          Alcotest.test_case "append" `Quick test_bits_append;
          Alcotest.test_case "reader sequence" `Quick test_reader_sequence;
          qtest prop_bits_bool_roundtrip;
          qtest prop_bits_append_length;
          qtest prop_bits_append_assoc;
          qtest prop_bits_compare_total;
          qtest prop_encode_nat_roundtrip;
          qtest prop_encode_nat_self_delimiting;
          qtest prop_bits_compare_is_string_order;
          qtest prop_bits_concat_is_string_concat;
          qtest prop_bits_equal_across_splits;
          Alcotest.test_case "writer matches the wrappers" `Quick test_writer_matches_wrappers ] );
      ( "json",
        [ qtest prop_json_roundtrip;
          Alcotest.test_case "parse errors keep their offsets" `Quick test_json_errors;
          Alcotest.test_case "raw payloads and to_buffer" `Quick test_json_raw_and_to_buffer ] );
      ( "cost",
        [ Alcotest.test_case "tick/get" `Quick test_cost_basic;
          Alcotest.test_case "nested measure" `Quick test_cost_measure_nested;
          Alcotest.test_case "measure under exception" `Quick test_cost_measure_exn ] );
      ( "poly",
        [ Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "normalize" `Quick test_poly_normalize;
          Alcotest.test_case "rejects negatives" `Quick test_poly_negative;
          Alcotest.test_case "dominates window" `Quick test_poly_dominates;
          qtest prop_poly_add;
          qtest prop_poly_mul;
          qtest prop_poly_compose ] );
      ( "order",
        [ Alcotest.test_case "pair" `Quick test_order_pair;
          Alcotest.test_case "list" `Quick test_order_list;
          Alcotest.test_case "option" `Quick test_order_option;
          Alcotest.test_case "lex/triple/by" `Quick test_order_lex_triple_by;
          Alcotest.test_case "pretty table" `Quick test_pretty_table_renders ] ) ]
