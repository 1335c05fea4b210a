(* Tests for the PSIOA core: values, actions, signatures, automata,
   executions, composition, hiding, renaming (paper Sections 2.2-2.4, 2.6,
   Definition 2.8 / Lemma A.1). *)

open Cdse_prob
open Cdse_psioa
open Cdse_testkit

let qtest = QCheck_alcotest.to_alcotest
let act = Fixtures.act
let sig_io = Fixtures.sig_io

(* ----------------------------------------------------------------- Value *)

let value_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let base =
             oneof
               [ return Value.Unit;
                 map Value.bool bool;
                 map Value.int (int_range (-1000) 1000);
                 map Value.str (string_size ~gen:(char_range 'a' 'z') (int_bound 6)) ]
           in
           if n = 0 then base
           else
             frequency
               [ (3, base);
                 (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
                 (1, map Value.list (list_size (int_bound 3) (self (n / 2))));
                 (1, map2 Value.tag (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) (self (n / 2))) ]))

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_bits_roundtrip =
  QCheck.Test.make ~name:"value: bits roundtrip" value_arb (fun v ->
      Value.equal v (Value.of_bits (Value.to_bits v)))

let prop_value_compare_refl =
  QCheck.Test.make ~name:"value: compare reflexive" value_arb (fun v -> Value.compare v v = 0)

let prop_value_compare_antisym =
  QCheck.Test.make ~name:"value: compare antisymmetric" (QCheck.pair value_arb value_arb)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_value_encoding_injective =
  QCheck.Test.make ~name:"value: distinct values, distinct encodings"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      QCheck.assume (not (Value.equal a b));
      not (Cdse_util.Bits.equal (Value.to_bits a) (Value.to_bits b)))

(* Twelve-member configurations that differ only in their last member:
   a 10-leaf hash gives all 50 one bucket chain. *)
let test_value_hash_deep () =
  let cfg k =
    Value.tag "cfg"
      (Value.list
         (List.init 12 (fun i ->
              Value.pair (Value.str (Printf.sprintf "m%d" i)) (Value.int (if i = 11 then k else 0)))))
  in
  let hashes = List.sort_uniq Int.compare (List.init 50 (fun k -> Value.hash (cfg k))) in
  Alcotest.(check int) "50 configurations, 50 hashes" 50 (List.length hashes)

let test_value_trailing_bits () =
  let bits = Cdse_util.Bits.append (Value.to_bits Value.unit) (Cdse_util.Bits.of_string "1") in
  Alcotest.check_raises "trailing" (Invalid_argument "Value.of_bits: trailing bits") (fun () ->
      ignore (Value.of_bits bits))

let prop_decoder_total_on_garbage =
  (* Robustness: the self-delimiting decoder either parses or raises
     Invalid_argument — never crashes, loops, or returns on trailing
     garbage it silently ignored (roundtrip re-encoding must agree). *)
  QCheck.Test.make ~name:"value: decoder total on random bits"
    QCheck.(small_list bool)
    (fun bits ->
      let b = Cdse_util.Bits.of_bool_list bits in
      match Value.of_bits b with
      | v -> Cdse_util.Bits.equal (Value.to_bits v) b
      | exception Invalid_argument _ -> true)

(* The wire encoding, pinned: literal bit strings recorded before the
   encoder was rewritten, one value per constructor; the long ones are
   pinned by length and the MD5 of their '0'/'1' rendering. *)
let long_str = String.init 300 (fun i -> Char.chr (i land 0xff))

let cfg12 last =
  Value.tag "cfg"
    (Value.list
       (List.init 12 (fun i ->
            Value.pair (Value.str (Printf.sprintf "m%d" i)) (Value.int (if i = 11 then last else i)))))

let golden_values =
  [ ("Unit", Value.Unit, `Bits "000");
    ("Bool true", Value.Bool true, `Bits "0011");
    ("Bool false", Value.Bool false, `Bits "0010");
    ("Int 0", Value.Int 0, `Bits "01011");
    ("Int 5", Value.Int 5, `Bits "010100110");
    ("Int (-3)", Value.Int (-3), `Bits "010000100");
    ( "Int (1 lsl 40)", Value.Int (1 lsl 40),
      `Bits "0101000000000000000000000000000000000000000010000000000000000000000000000000000000001" );
    ( "Int (max_int - 1)", Value.Int (max_int - 1),
      `Bits
        "0101000000000000000000000000000000000000000000000000000000000000011111111111111111111111111111111111111111111111111111111111111"
    );
    ( "Int (min_int + 2)", Value.Int (min_int + 2),
      `Bits
        "0100000000000000000000000000000000000000000000000000000000000000011111111111111111111111111111111111111111111111111111111111111"
    );
    ("Str \"\"", Value.Str "", `Bits "0111");
    ("Str \"a\\\"b\"", Value.Str "a\"b", `Bits "01100100011000010010001001100010");
    ("Str \"\\000\\255\"", Value.Str "\000\255", `Bits "0110110000000011111111");
    ("Pair (Int 1, Str \"x\")", Value.Pair (Value.Int 1, Value.Str "x"), `Bits "100010101001101001111000");
    ("List []", Value.List [], `Bits "1011");
    ( "List [Unit; Bool true; Int 7]", Value.List [ Value.Unit; Value.Bool true; Value.Int 7 ],
      `Bits "10100100000001101010001000" );
    ("Tag (\"walk\", Int 2)", Value.Tag ("walk", Value.Int 2), `Bits "11000101011101110110000101101100011010110101011");
    ("Tag (\"go\", Unit)", Value.Tag ("go", Value.Unit), `Bits "1100110110011101101111000");
    ("Str of 300 bytes", Value.Str long_str, `Digest (2420, "8c29a98ad735506cfe82c8b9cf4a6e49"));
    ("12-member cfg", cfg12 11, `Digest (472, "3d001d73cfb8b0bc969ecb51f7f68f10")) ]

let test_value_golden () =
  List.iter
    (fun (name, v, expected) ->
      let got = Cdse_util.Bits.to_string (Value.to_bits v) in
      match expected with
      | `Bits b -> Alcotest.(check string) name b got
      | `Digest (len, md5) ->
          Alcotest.(check int) (name ^ " length") len (String.length got);
          Alcotest.(check string) (name ^ " digest") md5 (Digest.to_hex (Digest.string got)))
    golden_values

(* Values over the whole input range: every int the encoding accepts
   (|n| < max_int), strings of any bytes, and strings longer than 255. *)
let wide_value_gen =
  QCheck.Gen.(
    let any_string = string_size ~gen:char (oneof [ int_bound 8; int_range 250 300 ]) in
    let any_int = map (fun n -> if abs n >= max_int - 1 || n = min_int then n / 2 else n) int in
    sized
    @@ fix (fun self n ->
           let base =
             oneof
               [ return Value.Unit; map Value.bool bool; map Value.int any_int;
                 map Value.int small_signed_int; map Value.str any_string ]
           in
           if n = 0 then base
           else
             frequency
               [ (3, base);
                 (1, map2 Value.pair (self (n / 2)) (self (n / 2)));
                 (1, map Value.list (list_size (int_bound 4) (self (n / 2))));
                 (1, map2 Value.tag any_string (self (n / 2))) ]))

let prop_value_bits_reference =
  QCheck.Test.make ~name:"value: bits match the reference encoder" ~count:300
    (QCheck.make ~print:Value.to_string wide_value_gen)
    (fun v -> Cdse_util.Bits.to_string (Value.to_bits v) = Ref_bits.value v)

(* ---------------------------------------------------------------- Action *)

let prop_action_bits_roundtrip =
  QCheck.Test.make ~name:"action: bits roundtrip"
    (QCheck.pair (QCheck.string_gen_of_size (QCheck.Gen.int_range 1 8) (QCheck.Gen.char_range 'a' 'z')) value_arb)
    (fun (n, p) ->
      let a = Action.make ~payload:p n in
      Action.equal a (Action.of_bits (Action.to_bits a)))

let test_action_golden () =
  Alcotest.(check string) "w.step" "11000111011101110010111001110011011101000110010101110000000"
    (Cdse_util.Bits.to_string (Action.to_bits (Action.make "w.step")));
  Alcotest.(check string) "send(Int 4)" "1100010101110011011001010110111001100100010100101"
    (Cdse_util.Bits.to_string (Action.to_bits (Action.make ~payload:(Value.Int 4) "send")))

let prop_action_bits_reference =
  QCheck.Test.make ~name:"action: bits match the reference encoder"
    (QCheck.pair (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 8) QCheck.Gen.char) value_arb)
    (fun (n, p) ->
      let a = Action.make ~payload:p n in
      Cdse_util.Bits.to_string (Action.to_bits a) = Ref_bits.action a)

let test_action_pp () =
  Alcotest.(check string) "no payload" "go" (Action.to_string (act "go"));
  Alcotest.(check string) "payload" "send(7)" (Action.to_string (act ~payload:(Value.int 7) "send"))

(* ------------------------------------------------------------------ Sigs *)

let a1 = act "a1"
let a2 = act "a2"
let a3 = act "a3"
let a4 = act "a4"

let test_sigs_disjoint () =
  Alcotest.check_raises "overlap rejected"
    (Sigs.Not_disjoint "Sigs.make: overlapping components in={a1} out={a1} int={}") (fun () ->
      ignore (sig_io ~i:[ a1 ] ~o:[ a1 ] ()))

let test_sigs_compose_def24 () =
  (* Def 2.4: in ∪ in' − (out ∪ out'), out ∪ out', int ∪ int'. *)
  let s1 = sig_io ~i:[ a1; a2 ] ~o:[ a3 ] () in
  let s2 = sig_io ~i:[ a3 ] ~o:[ a2 ] ~h:[ a4 ] () in
  let c = Sigs.compose s1 s2 in
  Alcotest.(check bool) "in = {a1}" true (Action_set.equal (Sigs.input c) (Action_set.of_list [ a1 ]));
  Alcotest.(check bool) "out = {a2,a3}" true
    (Action_set.equal (Sigs.output c) (Action_set.of_list [ a2; a3 ]));
  Alcotest.(check bool) "int = {a4}" true
    (Action_set.equal (Sigs.internal c) (Action_set.of_list [ a4 ]))

let test_sigs_incompatible () =
  (* Shared output violates Def 2.3 clause 2. *)
  let s1 = sig_io ~o:[ a1 ] () and s2 = sig_io ~o:[ a1 ] () in
  Alcotest.(check bool) "shared output" false (Sigs.compatible s1 s2);
  (* Internal action visible to the other violates clause 1. *)
  let s3 = sig_io ~h:[ a2 ] () and s4 = sig_io ~i:[ a2 ] () in
  Alcotest.(check bool) "internal clash" false (Sigs.compatible s3 s4);
  Alcotest.check_raises "compose rejects" (Sigs.Not_disjoint "Sigs.compose: incompatible signatures")
    (fun () -> ignore (Sigs.compose s1 s2))

let test_sigs_hide () =
  let s = sig_io ~i:[ a1 ] ~o:[ a2; a3 ] () in
  let h = Sigs.hide s (Action_set.of_list [ a2; a4 ]) in
  Alcotest.(check bool) "a2 now internal" true (Sigs.classify a2 h = `Internal);
  Alcotest.(check bool) "a3 still output" true (Sigs.classify a3 h = `Output);
  Alcotest.(check bool) "a4 ignored" true (Sigs.classify a4 h = `Absent);
  Alcotest.(check bool) "input untouched" true (Sigs.classify a1 h = `Input)

let gen_sig rng_names =
  (* Build a signature from a pool of distinct names split three ways. *)
  QCheck.Gen.(
    let* names = return rng_names in
    let* cut1 = int_bound (List.length names) in
    let* cut2 = int_bound (List.length names) in
    let lo = min cut1 cut2 and hi = max cut1 cut2 in
    let idx = List.mapi (fun i n -> (i, n)) names in
    let part f = List.filter_map (fun (i, n) -> if f i then Some (act n) else None) idx in
    return
      (sig_io ~i:(part (fun i -> i < lo)) ~o:(part (fun i -> i >= lo && i < hi))
         ~h:(part (fun i -> i >= hi)) ()))

let compatible_sig_triple =
  (* Three signatures over disjoint name pools are always compatible. *)
  let gen =
    QCheck.Gen.(
      let* s1 = gen_sig [ "p1"; "p2"; "p3" ] in
      let* s2 = gen_sig [ "q1"; "q2"; "q3" ] in
      let* s3 = gen_sig [ "r1"; "r2"; "r3" ] in
      return (s1, s2, s3))
  in
  QCheck.make ~print:(fun (a, b, c) -> Format.asprintf "%a | %a | %a" Sigs.pp a Sigs.pp b Sigs.pp c) gen

let prop_sigs_compose_commutative =
  QCheck.Test.make ~name:"sigs: composition commutative" compatible_sig_triple (fun (s1, s2, _) ->
      Sigs.equal (Sigs.compose s1 s2) (Sigs.compose s2 s1))

let prop_sigs_compose_associative =
  QCheck.Test.make ~name:"sigs: composition associative" compatible_sig_triple (fun (s1, s2, s3) ->
      Sigs.equal
        (Sigs.compose (Sigs.compose s1 s2) s3)
        (Sigs.compose s1 (Sigs.compose s2 s3)))

let prop_sigs_hide_preserves_all =
  QCheck.Test.make ~name:"sigs: hiding preserves sig-hat" compatible_sig_triple (fun (s1, _, _) ->
      let h = Sigs.hide s1 (Sigs.output s1) in
      Action_set.equal (Sigs.all h) (Sigs.all s1))

(* ----------------------------------------------------------------- Psioa *)

let test_validate_fixtures () =
  List.iter
    (fun auto ->
      match Psioa.validate auto with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Psioa.name auto) e)
    [ Fixtures.coin "c";
      Fixtures.counter "k";
      Fixtures.channel "ch";
      Fixtures.sender ~channel_name:"ch" "s";
      Fixtures.receiver ~channel_name:"ch" "r";
      Fixtures.acceptor ~watch:[ ("x", None) ] "e" ]

let test_validate_broken () =
  (match Psioa.validate (Fixtures.broken_no_transition "b") with
  | Ok () -> Alcotest.fail "missing transition not caught"
  | Error e -> Alcotest.(check bool) "mentions action" true (String.length e > 0));
  match Psioa.validate (Fixtures.broken_improper "b") with
  | Ok () -> Alcotest.fail "improper dist not caught"
  | Error e ->
      Alcotest.(check bool) "mentions mass" true
        (Astring.String.is_infix ~affix:"mass" e
         || String.length e > 0)

let test_reachable_coin () =
  let c = Fixtures.coin "c" in
  Alcotest.(check int) "3 states" 3 (List.length (Psioa.reachable c))

let test_reachable_limit () =
  let k = Fixtures.counter ~bound:100 "k" in
  Alcotest.(check int) "state limit respected" 10 (List.length (Psioa.reachable ~max_states:10 k));
  Alcotest.(check int) "depth limit respected" 4 (List.length (Psioa.reachable ~max_depth:3 k))

let test_step_not_enabled () =
  let c = Fixtures.coin "c" in
  (try
     ignore (Psioa.step c (Psioa.start c) (act "nope"));
     Alcotest.fail "expected Not_enabled"
   with Psioa.Not_enabled { automaton; _ } -> Alcotest.(check string) "name" "c" automaton)

let test_memoize_equivalent () =
  let c = Fixtures.channel "ch" in
  let m = Psioa.memoize c in
  List.iter
    (fun q ->
      Alcotest.(check bool) "sig equal" true (Sigs.equal (Psioa.signature c q) (Psioa.signature m q));
      Action_set.iter
        (fun a ->
          let d1 = Psioa.step c q a and d2 = Psioa.step m q a in
          Alcotest.(check bool) "dist equal" true (Dist.equal d1 d2))
        (Psioa.enabled c q))
    (Psioa.reachable c)

let test_universal_actions () =
  let c = Fixtures.coin "c" in
  let acts = Psioa.universal_actions c in
  Alcotest.(check int) "3 actions" 3 (Action_set.cardinal acts)

(* ------------------------------------------------------------------ Exec *)

let test_exec_basic () =
  let e = Exec.init (Value.int 0) in
  Alcotest.(check int) "len 0" 0 (Exec.length e);
  let e = Exec.extend e a1 (Value.int 1) in
  let e = Exec.extend e a2 (Value.int 2) in
  Alcotest.(check int) "len 2" 2 (Exec.length e);
  Alcotest.(check bool) "fstate" true (Value.equal (Exec.fstate e) (Value.int 0));
  Alcotest.(check bool) "lstate" true (Value.equal (Exec.lstate e) (Value.int 2));
  Alcotest.(check int) "3 states" 3 (List.length (Exec.states e))

let test_exec_concat () =
  let e1 = Exec.extend (Exec.init (Value.int 0)) a1 (Value.int 1) in
  let e2 = Exec.extend (Exec.init (Value.int 1)) a2 (Value.int 2) in
  let e = Exec.concat e1 e2 in
  Alcotest.(check int) "len" 2 (Exec.length e);
  let bad = Exec.init (Value.int 9) in
  Alcotest.check_raises "mismatch" (Invalid_argument "Exec.concat: fragments do not meet")
    (fun () -> ignore (Exec.concat e1 bad))

let test_exec_prefix () =
  let e1 = Exec.extend (Exec.init (Value.int 0)) a1 (Value.int 1) in
  let e2 = Exec.extend e1 a2 (Value.int 2) in
  Alcotest.(check bool) "e1 ≤ e2" true (Exec.is_prefix e1 ~of_:e2);
  Alcotest.(check bool) "e2 ≰ e1" false (Exec.is_prefix e2 ~of_:e1);
  Alcotest.(check bool) "e ≤ e" true (Exec.is_prefix e2 ~of_:e2)

let test_exec_trace_hides_internal () =
  let c = Fixtures.coin "c" in
  let heads = Value.tag "heads" Value.unit in
  let e = Exec.extend (Exec.init (Psioa.start c)) (act "c.flip") heads in
  let e = Exec.extend e (act "c.heads") heads in
  let tr = Exec.trace ~sig_of:(Psioa.signature c) e in
  Alcotest.(check (list string)) "only external" [ "c.heads" ] (List.map Action.name tr)

let prop_exec_exists_state =
  QCheck.Test.make ~name:"exec: exists_state = exists over states"
    QCheck.(triple (int_bound 4) (small_list (pair (int_bound 2) (int_bound 4))) (int_bound 4))
    (fun (first, steps, target) ->
      let e =
        Exec.of_steps (Value.int first)
          (List.map (fun (a, q) -> (act (Printf.sprintf "a%d" a), Value.int q)) steps)
      in
      let p v = Value.equal v (Value.int target) in
      Exec.exists_state p e = List.exists p (Exec.states e))

(* --------------------------------------------------------------- Compose *)

let test_compose_sync () =
  (* sender(out send(m)) || channel(in send(m), out recv(m)): shared action
     becomes an output of the composite; messages flow. *)
  let ch = Fixtures.channel "ch" in
  let s = Fixtures.sender ~channel_name:"ch" ~script:[ 1 ] "s" in
  let c = Compose.pair s ch in
  (match Psioa.validate c with Ok () -> () | Error e -> Alcotest.fail e);
  let send1 = act ~payload:(Value.int 1) "ch.send" in
  let sg = Psioa.signature c (Psioa.start c) in
  Alcotest.(check bool) "send1 is output of composite" true (Sigs.classify send1 sg = `Output);
  let d = Psioa.step c (Psioa.start c) send1 in
  Alcotest.(check int) "deterministic" 1 (Dist.size d);
  let q' = List.hd (Dist.support d) in
  let _, qch = Compose.proj_pair q' in
  Alcotest.(check bool) "channel now full" true
    (Value.equal qch (Value.tag "full" (Value.int 1)))

let test_compose_product_measure () =
  (* Two independent coins flipped by a single shared action name would be
     incompatible; instead verify product measure via a synchronized input.
     Simpler: coin composed with a counter — independent actions — then the
     joint transition on coin.flip leaves the counter in place (Dirac). *)
  let c = Fixtures.coin "c" and k = Fixtures.counter "k" in
  let comp = Compose.pair c k in
  let d = Psioa.step comp (Psioa.start comp) (act "c.flip") in
  Alcotest.(check int) "two outcomes" 2 (Dist.size d);
  List.iter
    (fun q ->
      let _, qk = Compose.proj_pair q in
      Alcotest.(check bool) "counter unmoved" true (Value.equal qk (Value.tag "ctr" (Value.int 0))))
    (Dist.support d);
  Alcotest.(check string) "probability 1/2" "1/2"
    (Rat.to_string (Dist.prob d (Value.pair (Value.tag "heads" Value.unit) (Value.tag "ctr" (Value.int 0)))))

let test_compose_incompatible_outputs () =
  (* Two senders to the same channel share output actions: incompatible. *)
  let s1 = Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s1" in
  let s2 = Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s2" in
  Alcotest.(check bool) "not partially compatible" false (Compose.partially_compatible [ s1; s2 ])

let test_compose_parallel_three () =
  let s = Fixtures.sender ~channel_name:"ch" ~script:[ 0; 1 ] "s" in
  let ch = Fixtures.channel "ch" in
  let r = Fixtures.receiver ~channel_name:"ch" "r" in
  let sys = Compose.parallel [ s; ch; r ] in
  (match Psioa.validate sys with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "partially compatible" true (Compose.partially_compatible [ s; ch; r ]);
  (* Drive to completion: send 0, recv 0, send 1, recv 1. *)
  let step q a = List.hd (Dist.support (Psioa.step sys q a)) in
  let q = Psioa.start sys in
  let q = step q (act ~payload:(Value.int 0) "ch.send") in
  let q = step q (act ~payload:(Value.int 0) "ch.recv") in
  let q = step q (act ~payload:(Value.int 1) "ch.send") in
  let q = step q (act ~payload:(Value.int 1) "ch.recv") in
  match Compose.proj_list q with
  | [ _; _; qr ] ->
      Alcotest.(check bool) "receiver saw [0;1]" true
        (Value.equal qr (Value.tag "rcv" (Value.list [ Value.int 0; Value.int 1 ])))
  | _ -> Alcotest.fail "bad composite state"

let test_proj_exec () =
  let s = Fixtures.sender ~channel_name:"ch" ~script:[ 0 ] "s" in
  let ch = Fixtures.channel "ch" in
  let sys = Compose.parallel [ s; ch ] in
  let send0 = act ~payload:(Value.int 0) "ch.send" in
  let recv0 = act ~payload:(Value.int 0) "ch.recv" in
  let step q a = List.hd (Dist.support (Psioa.step sys q a)) in
  let q0 = Psioa.start sys in
  let q1 = step q0 send0 in
  let q2 = step q1 recv0 in
  let e = Exec.extend (Exec.extend (Exec.init q0) send0 q1) recv0 q2 in
  let es = Compose.proj_exec [ s; ch ] 0 e in
  Alcotest.(check int) "sender took 1 step" 1 (Exec.length es);
  let ech = Compose.proj_exec [ s; ch ] 1 e in
  Alcotest.(check int) "channel took 2 steps" 2 (Exec.length ech)

(* One transition of a composite reads each component's signature at its
   source state once: the composed signature, the membership test and
   each component's participation all come from that one evaluation. *)
let test_compose_one_signature_per_step () =
  let s, s_evals, s_reset = Fixtures.counted (Fixtures.sender ~channel_name:"ch" ~script:[ 1 ] "s") in
  let ch, ch_evals, ch_reset = Fixtures.counted (Fixtures.channel "ch") in
  let c = Compose.pair s ch in
  s_reset ();
  ch_reset ();
  ignore (Psioa.step c (Psioa.start c) (act ~payload:(Value.int 1) "ch.send"));
  Alcotest.(check int) "sender read once" 1 (s_evals (Psioa.start s));
  Alcotest.(check int) "channel read once" 1 (ch_evals (Psioa.start ch))

let test_compose_nested_one_signature_per_level () =
  (* ((leaf ‖ b) ‖ c) ‖ d stepping the leaf's own action: each of the
     three levels reads the leaf once on the way down. *)
  let leaf, evals, reset = Fixtures.counted (Fixtures.counter "a") in
  let c =
    List.fold_left
      (fun acc n -> Compose.pair acc (Fixtures.counter n))
      leaf [ "b"; "c"; "d" ]
  in
  reset ();
  ignore (Psioa.step c (Psioa.start c) (act "a.inc"));
  Alcotest.(check int) "leaf read once per level" 3 (evals (Psioa.start leaf))

(* ------------------------------------------------------- extra workloads *)

let test_fifo_order () =
  let f = Fixtures.fifo ~capacity:2 "q" in
  (match Psioa.validate f with Ok () -> () | Error e -> Alcotest.fail e);
  let send m = act ~payload:(Value.int m) "q.send" in
  let recv m = act ~payload:(Value.int m) "q.recv" in
  let step q a = List.hd (Dist.support (Psioa.step f q a)) in
  let q = Psioa.start f in
  let q = step q (send 1) in
  let q = step q (send 0) in
  (* Full: no more sends; recv offers the OLDEST message. *)
  Alcotest.(check bool) "full" false (Psioa.is_enabled f q (send 1));
  Alcotest.(check bool) "fifo head" true (Psioa.is_enabled f q (recv 1));
  Alcotest.(check bool) "not the newest" false (Psioa.is_enabled f q (recv 0));
  let q = step q (recv 1) in
  Alcotest.(check bool) "then the second" true (Psioa.is_enabled f q (recv 0))

let test_timer_fires_once () =
  let t = Fixtures.timer ~horizon:2 "t" in
  (match Psioa.validate t with Ok () -> () | Error e -> Alcotest.fail e);
  let sched = Cdse_sched.Scheduler.first_enabled t in
  let d = Cdse_sched.Measure.exec_dist t sched ~depth:10 in
  let e = List.hd (Dist.support d) in
  Alcotest.(check int) "2 ticks + timeout" 3 (Exec.length e);
  Alcotest.(check int) "exactly one timeout" 1
    (List.length (List.filter (fun a -> Action.name a = "t.timeout") (Exec.actions e)))

let test_random_walk_measure () =
  (* After 2 steps from the middle of 0..4: P(back at middle) = 1/2,
     P(±2) = 1/4 each. *)
  let w = Fixtures.random_walk ~span:4 "w" in
  let sched = Cdse_sched.Scheduler.bounded 2 (Cdse_sched.Scheduler.first_enabled w) in
  let d = Cdse_sched.Measure.exec_dist w sched ~depth:2 in
  let at k =
    Cdse_prob.Rat.sum
      (List.filter_map
         (fun (e, p) ->
           if Value.equal (Exec.lstate e) (Value.tag "walk" (Value.int k)) then Some p else None)
         (Dist.items d))
  in
  Alcotest.(check string) "P(2) = 1/2" "1/2" (Cdse_prob.Rat.to_string (at 2));
  Alcotest.(check string) "P(0) = 1/4" "1/4" (Cdse_prob.Rat.to_string (at 0));
  Alcotest.(check string) "P(4) = 1/4" "1/4" (Cdse_prob.Rat.to_string (at 4))

let test_walk_clamps () =
  (* From the border, the walk stays in range: support never leaves 0..span. *)
  let w = Fixtures.random_walk ~span:2 "w" in
  let sched = Cdse_sched.Scheduler.bounded 5 (Cdse_sched.Scheduler.first_enabled w) in
  let d = Cdse_sched.Measure.exec_dist w sched ~depth:5 in
  List.iter
    (fun e ->
      List.iter
        (fun q ->
          match q with
          | Value.Tag ("walk", Value.Int k) ->
              Alcotest.(check bool) "in range" true (k >= 0 && k <= 2)
          | _ -> ())
        (Exec.states e))
    (Dist.support d)

(* ------------------------------------------------------------ Hide/Rename *)

let test_hide_psioa () =
  let c = Fixtures.coin "c" in
  let hidden = Hide.psioa_const c (Action_set.of_list [ act "c.heads" ]) in
  let heads = Value.tag "heads" Value.unit in
  Alcotest.(check bool) "heads internal now" true
    (Sigs.classify (act "c.heads") (Psioa.signature hidden heads) = `Internal);
  (match Psioa.validate hidden with Ok () -> () | Error e -> Alcotest.fail e);
  (* Transitions unchanged. *)
  Alcotest.(check bool) "same transition" true
    (Dist.equal (Psioa.step c heads (act "c.heads")) (Psioa.step hidden heads (act "c.heads")))

let test_rename_lemma_a1 () =
  (* Lemma A.1: the renamed structure is still a PSIOA. *)
  let c = Fixtures.coin "c" in
  let r = Rename.prefix "X." in
  let rc = Rename.psioa c r in
  (match Psioa.validate rc with Ok () -> () | Error e -> Alcotest.fail e);
  let heads = Value.tag "heads" Value.unit in
  Alcotest.(check bool) "renamed output enabled" true
    (Psioa.is_enabled rc heads (act "X.c.heads"));
  Alcotest.(check bool) "original name gone" false (Psioa.is_enabled rc heads (act "c.heads"));
  (* Same transition measures modulo renaming (Def 2.8 item 4). *)
  Alcotest.(check bool) "same measure" true
    (Dist.equal (Psioa.step rc heads (act "X.c.heads")) (Psioa.step c heads (act "c.heads")))

let test_rename_only_restricts () =
  let set = Action_set.of_list [ act "c.flip" ] in
  let r = Rename.only set (Rename.prefix "Y.") in
  Alcotest.(check string) "in set renamed" "Y.c.flip"
    (Action.name (r Value.unit (act "c.flip")));
  Alcotest.(check string) "out of set untouched" "c.heads"
    (Action.name (r Value.unit (act "c.heads")))

let () =
  Alcotest.run "cdse_psioa"
    [ ( "value",
        [ Alcotest.test_case "trailing bits rejected" `Quick test_value_trailing_bits;
          Alcotest.test_case "hash separates late members" `Quick test_value_hash_deep;
          qtest prop_value_bits_roundtrip;
          qtest prop_value_compare_refl;
          qtest prop_value_compare_antisym;
          qtest prop_value_encoding_injective;
          qtest prop_decoder_total_on_garbage;
          Alcotest.test_case "wire encoding pinned (golden vectors)" `Quick test_value_golden;
          qtest prop_value_bits_reference ] );
      ( "action",
        [ Alcotest.test_case "pp" `Quick test_action_pp; qtest prop_action_bits_roundtrip;
          Alcotest.test_case "wire encoding pinned (golden vectors)" `Quick test_action_golden;
          qtest prop_action_bits_reference ] );
      ( "sigs",
        [ Alcotest.test_case "disjointness enforced" `Quick test_sigs_disjoint;
          Alcotest.test_case "composition (Def 2.4)" `Quick test_sigs_compose_def24;
          Alcotest.test_case "incompatibility (Def 2.3)" `Quick test_sigs_incompatible;
          Alcotest.test_case "hiding (Def 2.6)" `Quick test_sigs_hide;
          qtest prop_sigs_compose_commutative;
          qtest prop_sigs_compose_associative;
          qtest prop_sigs_hide_preserves_all ] );
      ( "psioa",
        [ Alcotest.test_case "fixtures validate" `Quick test_validate_fixtures;
          Alcotest.test_case "broken automata rejected" `Quick test_validate_broken;
          Alcotest.test_case "reachable coin" `Quick test_reachable_coin;
          Alcotest.test_case "reachable limits" `Quick test_reachable_limit;
          Alcotest.test_case "step not enabled" `Quick test_step_not_enabled;
          Alcotest.test_case "memoize equivalent" `Quick test_memoize_equivalent;
          Alcotest.test_case "universal actions" `Quick test_universal_actions ] );
      ( "exec",
        [ Alcotest.test_case "basics" `Quick test_exec_basic;
          Alcotest.test_case "concat" `Quick test_exec_concat;
          Alcotest.test_case "prefix" `Quick test_exec_prefix;
          Alcotest.test_case "trace hides internal" `Quick test_exec_trace_hides_internal;
          qtest prop_exec_exists_state ] );
      ( "compose",
        [ Alcotest.test_case "synchronization" `Quick test_compose_sync;
          Alcotest.test_case "product measure (Def 2.5)" `Quick test_compose_product_measure;
          Alcotest.test_case "shared outputs incompatible" `Quick test_compose_incompatible_outputs;
          Alcotest.test_case "three-way pipeline" `Quick test_compose_parallel_three;
          Alcotest.test_case "execution projection" `Quick test_proj_exec;
          Alcotest.test_case "one signature read per component per step" `Quick
            test_compose_one_signature_per_step;
          Alcotest.test_case "nested pair: one leaf read per level" `Quick
            test_compose_nested_one_signature_per_level ] );
      ( "workloads",
        [ Alcotest.test_case "fifo preserves order" `Quick test_fifo_order;
          Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "random walk exact measure" `Quick test_random_walk_measure;
          Alcotest.test_case "random walk clamps" `Quick test_walk_clamps ] );
      ( "hide-rename",
        [ Alcotest.test_case "hiding (Def 2.7)" `Quick test_hide_psioa;
          Alcotest.test_case "renaming closure (Lemma A.1)" `Quick test_rename_lemma_a1;
          Alcotest.test_case "restricted renaming" `Quick test_rename_only_restricts ] ) ]
