(* Tests for the PSIOA core: values, actions, signatures, automata,
   executions, composition, hiding, renaming (paper Sections 2.2-2.4, 2.6,
   Definition 2.8 / Lemma A.1). *)

open Cdse_prob
open Cdse_psioa
open Cdse_testkit

let qtest = QCheck_alcotest.to_alcotest
let act = Fixtures.act

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
      ignore (Sigs.of_lists ~i:[ a1 ] ~o:[ a1 ] ()))

let test_sigs_compose_def24 () =
  (* Def 2.4: in ∪ in' − (out ∪ out'), out ∪ out', int ∪ int'. *)
  let s1 = Sigs.of_lists ~i:[ a1; a2 ] ~o:[ a3 ] () in
  let s2 = Sigs.of_lists ~i:[ a3 ] ~o:[ a2 ] ~h:[ a4 ] () in
  let c = Sigs.compose s1 s2 in
  Alcotest.(check bool) "in = {a1}" true (Action_set.equal (Sigs.input c) (Action_set.of_list [ a1 ]));
  Alcotest.(check bool) "out = {a2,a3}" true
    (Action_set.equal (Sigs.output c) (Action_set.of_list [ a2; a3 ]));
  Alcotest.(check bool) "int = {a4}" true
    (Action_set.equal (Sigs.internal c) (Action_set.of_list [ a4 ]))

let test_sigs_incompatible () =
  (* Shared output violates Def 2.3 clause 2. *)
  let s1 = Sigs.of_lists ~o:[ a1 ] () and s2 = Sigs.of_lists ~o:[ a1 ] () in
  Alcotest.(check bool) "shared output" false (Sigs.compatible s1 s2);
  (* Internal action visible to the other violates clause 1. *)
  let s3 = Sigs.of_lists ~h:[ a2 ] () and s4 = Sigs.of_lists ~i:[ a2 ] () in
  Alcotest.(check bool) "internal clash" false (Sigs.compatible s3 s4);
  Alcotest.check_raises "compose rejects" (Sigs.Not_disjoint "Sigs.compose: incompatible signatures")
    (fun () -> ignore (Sigs.compose s1 s2))

let test_sigs_hide () =
  let s = Sigs.of_lists ~i:[ a1 ] ~o:[ a2; a3 ] () in
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
      (Sigs.of_lists ~i:(part (fun i -> i < lo)) ~o:(part (fun i -> i >= lo && i < hi))
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

(* Two signatures over one shared pool of five names. In each, a name is
   absent with probability 5/8, else an input, an output or internal:
   about two pairs in five are incompatible. *)
let shared_pool_sig_pair =
  let pool = [ "s1"; "s2"; "s3"; "s4"; "s5" ] in
  let role = QCheck.Gen.frequency QCheck.Gen.[ (5, return 0); (1, return 1); (1, return 2); (1, return 3) ] in
  let gen_sig =
    QCheck.Gen.(
      let* roles = list_repeat (List.length pool) role in
      let with_role r = List.filteri (fun i _ -> List.nth roles i = r) pool |> List.map act in
      return (Sigs.of_lists ~i:(with_role 1) ~o:(with_role 2) ~h:(with_role 3) ()))
  in
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a | %a" Sigs.pp a Sigs.pp b)
    (QCheck.Gen.pair gen_sig gen_sig)

(* Definition 2.3 in its union form, and Definition 2.4's triple. *)
let prop_sigs_defs_literal =
  QCheck.Test.make ~count:500 ~name:"sigs: Defs 2.3 and 2.4, literally" shared_pool_sig_pair
    (fun (s1, s2) ->
      let open Action_set in
      let compatible =
        disjoint (Sigs.all s1) (Sigs.internal s2)
        && disjoint (Sigs.all s2) (Sigs.internal s1)
        && disjoint (Sigs.output s1) (Sigs.output s2)
      in
      Bool.equal (Sigs.compatible s1 s2) compatible
      &&
      match Sigs.compose s1 s2 with
      | c ->
          let out = union (Sigs.output s1) (Sigs.output s2) in
          compatible
          && equal (Sigs.input c) (diff (union (Sigs.input s1) (Sigs.input s2)) out)
          && equal (Sigs.output c) out
          && equal (Sigs.internal c) (union (Sigs.internal s1) (Sigs.internal s2))
      | exception Sigs.Not_disjoint msg ->
          (not compatible) && String.equal msg "Sigs.compose: incompatible signatures")

let prop_sigs_filter_ext =
  QCheck.Test.make ~name:"sigs: filter_ext = filter over ext" shared_pool_sig_pair (fun (s, _) ->
      let p a = Action.name a <> "s2" && Action.name a <> "s4" in
      Action_set.equal (Sigs.filter_ext p s) (Action_set.filter p (Sigs.ext s)))

(* ----------------------------------------------------------------- Psioa *)

let test_validate_fixtures () =
  (* The receiver records every message: 2^(d+1) - 1 states within depth
     d, 16 383 within depth 13. The other fixtures reach all their states
     within that depth. *)
  List.iter
    (fun auto ->
      match Psioa.validate ~max_states:20_000 ~max_depth:13 auto with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Psioa.name auto) e)
    [ Fixtures.coin "c";
      Fixtures.counter "k";
      Fixtures.channel "ch";
      Fixtures.sender ~channel_name:"ch" "s";
      Fixtures.receiver ~channel_name:"ch" "r";
      Fixtures.acceptor ~watch:[ ("x", None) ] "e" ]

(* A sweep cut by the state cap checked a prefix, not the automaton: the
   receiver's states are unbounded. *)
let test_validate_truncated () =
  match Psioa.validate ~max_states:100 (Fixtures.receiver ~channel_name:"ch" "r") with
  | Ok () -> Alcotest.fail "a sweep cut at 100 states passed"
  | Error e ->
      Alcotest.(check bool) "names the automaton and the cap" true
        (Astring.String.is_infix ~affix:"\"r\"" e && Astring.String.is_infix ~affix:"100" e)

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

(* A memoized automaton answers as the original does, and memoizing it
   again returns it as it is: one memo per automaton. *)
let test_memoize_equivalent () =
  let c = Fixtures.channel "ch" in
  let m = Psioa.memoize c in
  List.iter
    (fun q ->
      Alcotest.(check bool) "sig equal" true
        (Sigs.equal (Psioa.signature c q) (Psioa.signature m q));
      Action_set.iter
        (fun a ->
          let d1 = Psioa.step c q a and d2 = Psioa.step m q a in
          Alcotest.(check bool) "dist equal" true (Dist.equal d1 d2))
        (Psioa.enabled c q))
    (Psioa.reachable c);
  Alcotest.(check bool) "a memoized automaton is memoized once" true (Psioa.memoize m == m)

(* [Psioa.memoize] keeps the first result stored for a key. The first
   evaluation of the coin's flip reads the same key through the memo
   before it returns, so that nested read stores first; the outer
   evaluation then returns the nested one's result, not its own equal
   copy, and so does every later read. *)
let test_memoize_first_stored_wins () =
  let c = Fixtures.coin "c" in
  let flip = act "c.flip" and q = Psioa.start c in
  let memo = ref None and entered = ref false and nested = ref None in
  let transition q' a =
    if not !entered then begin
      entered := true;
      nested := Psioa.transition (Option.get !memo) q' a
    end;
    Option.map (Dist.map ~compare:Value.compare Fun.id) (Psioa.transition c q' a)
  in
  let m = Psioa.memoize (Psioa.make ~name:"c" ~start:q ~signature:(Psioa.signature c) ~transition) in
  memo := Some m;
  let outer = Psioa.transition m q flip in
  Alcotest.(check bool) "the overtaken evaluation returns the stored result" true
    (Option.is_some outer && outer == !nested);
  Alcotest.(check bool) "a later read returns it too" true (Psioa.transition m q flip == outer);
  Alcotest.(check int) "one entry" 1 (Psioa.memo_entries m)

let test_universal_actions () =
  let c = Fixtures.coin "c" in
  let acts = Psioa.universal_actions c in
  Alcotest.(check int) "3 actions" 3 (Action_set.cardinal acts)

(* A counter that ticks internally from state 0 to state [last] and
   offers output [x] there, [last + 1] states in all. *)
let x_at last =
  let tick = act "k.tick" and x = act "x" in
  Psioa.make ~name:"k" ~start:(Value.int 0)
    ~signature:(fun q ->
      if Value.equal q (Value.int last) then Sigs.of_lists ~o:[ x ] ()
      else Sigs.of_lists ~h:[ tick ] ())
    ~transition:(fun q a ->
      match q with
      | Value.Int n when n < last && Action.equal a tick -> Some (Vdist.dirac (Value.int (n + 1)))
      | Value.Int n when n = last && Action.equal a x -> Some (Vdist.dirac q)
      | _ -> None)

(* Always offers output [x]. *)
let always_x =
  Psioa.make ~name:"x" ~start:Value.unit
    ~signature:(fun _ -> Sigs.of_lists ~o:[ act "x" ] ())
    ~transition:(fun q a -> if Action.equal a (act "x") then Some (Vdist.dirac q) else None)

let refuses_cut_sweep what ~automaton f =
  match f () with
  | _ -> Alcotest.failf "%s answered from a sweep cut at the cap" what
  | exception Psioa.Sweep_truncated r ->
      Alcotest.(check (pair string int))
        (what ^ " names the automaton and the cap")
        (automaton, Psioa.default_max_states) (r.automaton, r.max_states)

(* [x] offered beyond the 10 000-state cap: a sweep cut there would
   answer without it. *)
let test_universal_actions_refuse_cut_sweep () =
  let has_x acts = Action_set.mem (act "x") acts in
  Alcotest.(check bool) "x at state 9 998" true (has_x (Psioa.universal_actions (x_at 9_998)));
  refuses_cut_sweep "universal_actions" ~automaton:"k" (fun () ->
      Psioa.universal_actions (x_at 10_001));
  Alcotest.(check bool) "a cap that covers the states" true
    (has_x (Psioa.universal_actions ~max_states:10_002 (x_at 10_001)));
  Alcotest.(check bool) "a depth horizon is complete" false
    (has_x (Psioa.universal_actions ~max_depth:100 (x_at 10_001)));
  Alcotest.(check string) "the printer names both"
    "Psioa.Sweep_truncated: automaton \"k\" reaches more than 10000 states (max_states)"
    (Printexc.to_string (Psioa.Sweep_truncated { automaton = "k"; max_states = 10_000 }))

(* The one-entry signature cache: a read at the state last evaluated,
   the same physical value, returns the stored signature; any other state
   is evaluated again and replaces the entry. *)
let test_sig_cache_same_state () =
  let a, evals, _ = Fixtures.counted (Fixtures.counter "k") in
  let q = Psioa.start a in
  ignore (Psioa.signature a q);
  ignore (Psioa.signature a q);
  Alcotest.(check bool) "enabled reads the entry" true (Psioa.is_enabled a q (act "k.inc"));
  Alcotest.(check int) "two reads, one evaluation" 1 (evals q)

let test_sig_cache_equal_copy () =
  let a, evals, _ = Fixtures.counted (Fixtures.counter "k") in
  let q = Psioa.start a in
  let copy = Value.of_bits (Value.to_bits q) in
  Alcotest.(check bool) "equal, not physically" true (Value.equal q copy && q != copy);
  let s = Psioa.signature a q in
  let s' = Psioa.signature a copy in
  Alcotest.(check int) "the copy is evaluated again" 2 (evals q);
  Alcotest.(check bool) "with an equal result" true (Sigs.equal s s')

let test_sig_cache_raising () =
  let calls = ref 0 in
  let a =
    Psioa.make ~name:"bad" ~start:Value.unit
      ~signature:(fun _ ->
        incr calls;
        raise (Sigs.Not_disjoint "bad"))
      ~transition:(fun _ _ -> None)
  in
  for _ = 1 to 3 do
    Alcotest.check_raises "raises" (Sigs.Not_disjoint "bad") (fun () ->
        ignore (Psioa.signature a (Psioa.start a)))
  done;
  Alcotest.(check int) "evaluated on every read" 3 !calls

let test_sig_cache_one_entry () =
  let a, evals, _ = Fixtures.counted (Fixtures.counter "k") in
  let q0 = Psioa.start a in
  let q1 = List.hd (Dist.support (Psioa.step a q0 (act "k.inc"))) in
  for _ = 1 to 3 do
    ignore (Psioa.signature a q0);
    ignore (Psioa.signature a q1)
  done;
  Alcotest.(check (pair int int)) "alternating evaluates every read" (3, 3) (evals q0, evals q1)

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

let test_exec_hash_whole () =
  (* 50 executions of length 14 that differ only in their first step. *)
  let exec i =
    List.fold_left
      (fun e j -> Exec.extend e (act "b") (Value.int j))
      (Exec.extend (Exec.init Value.unit) (act "a") (Value.int i))
      (List.init 13 Fun.id)
  in
  let hashes = List.sort_uniq Int.compare (List.init 50 (fun i -> Exec.hash (exec i))) in
  Alcotest.(check int) "50 of 50 hash apart" 50 (List.length hashes);
  Alcotest.(check int) "equal executions, equal hashes" (Exec.hash (exec 7)) (Exec.hash (exec 7))

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

(* [Exec.first_hit] against the index of the first matching state of
   [Exec.states], alone and after a previous execution: a sibling that
   shares [e]'s first steps physically (a prefix or an extension of [e]
   when a tail is empty), a copy that shares only the start state, or
   one built apart that shares nothing. *)
let prop_exec_first_hit =
  let steps = QCheck.(small_list (pair (int_bound 2) (int_bound 4))) in
  QCheck.Test.make ~name:"exec: first_hit = least state index"
    QCheck.(pair (quad (int_bound 4) steps steps steps) (pair (int_bound 2) (int_bound 4)))
    (fun ((first, common, tail, tail'), (sharing, target)) ->
      let extend =
        List.fold_left (fun e (a, q) -> Exec.extend e (act (Printf.sprintf "a%d" a)) (Value.int q))
      in
      let base = extend (Exec.init (Value.int first)) common in
      let e = extend base tail in
      let prev =
        match sharing with
        | 0 -> extend base tail'
        | 1 -> Exec.of_steps (Exec.fstate e) (Exec.steps (extend base tail'))
        | _ -> extend (Exec.init (Value.int first)) (common @ tail')
      in
      let p v = Value.equal v (Value.int target) in
      let least x =
        let rec go j = function [] -> Exec.length x + 1 | q :: r -> if p q then j else go (j + 1) r in
        go 0 (Exec.states x)
      in
      Exec.first_hit p e = least e && Exec.first_hit ~prev:(prev, least prev) p e = least e)

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

(* Beside an automaton that always offers output [x], the counter is
   incompatible from the state where it offers [x] too. *)
let test_partially_compatible_refuses_cut_sweep () =
  Alcotest.(check bool) "x at state 9 998" false
    (Compose.partially_compatible [ x_at 9_998; always_x ]);
  refuses_cut_sweep "partially_compatible" ~automaton:"k||x" (fun () ->
      Compose.partially_compatible [ x_at 10_001; always_x ])

let test_compose_parallel_three () =
  let s = Fixtures.sender ~channel_name:"ch" ~script:[ 0; 1 ] "s" in
  let ch = Fixtures.channel "ch" in
  let r = Fixtures.receiver ~channel_name:"ch" "r" in
  let sys = Compose.parallel [ s; ch; r ] in
  (* The receiver's state records every message: 14 323 states within
     depth 11. *)
  (match Psioa.validate ~max_states:15_000 ~max_depth:11 sys with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The receiver's free inputs make the system infinite, so partial
     compatibility is checked within a horizon: a composed signature
     raises [Incompatible] at no state within depth 10 (7 155 states). *)
  (match Psioa.reachable ~max_depth:10 (Compose.parallel [ s; ch; r ]) with
  | _ -> ()
  | exception Compose.Incompatible e -> Alcotest.failf "not partially compatible: %s" e);
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
     three levels reads the leaf once on the way down, all at one physical
     state, so the leaf's signature is evaluated once for all three. *)
  let leaf, evals, reset = Fixtures.counted (Fixtures.counter "a") in
  let c =
    List.fold_left
      (fun acc n -> Compose.pair acc (Fixtures.counter n))
      leaf [ "b"; "c"; "d" ]
  in
  reset ();
  ignore (Psioa.step c (Psioa.start c) (act "a.inc"));
  Alcotest.(check int) "leaf evaluated once for three levels" 1 (evals (Psioa.start leaf))

(* A step decides membership from the composite's own signature, which
   the read just before it left in the last-evaluation entry: the step
   composes nothing more. *)
let test_compose_step_reads_entry () =
  let c = Compose.pair (Fixtures.coin "c") (Fixtures.counter "k") in
  let q = Psioa.start c in
  let (), snap =
    Cdse_obs.Obs.with_stats (fun () ->
        ignore (Psioa.signature c q);
        ignore (Psioa.step c q (act "c.flip")))
  in
  Alcotest.(check (option int)) "one composition for the read and the step" (Some 1)
    (List.assoc_opt "sigs.compose" snap.Cdse_obs.Obs.s_counters)

(* From state 1 the counter offers [x] as [always_x] does: a step there
   raises the composite signature's [Incompatible], whether or not the
   signature was read there first. *)
let test_compose_step_incompatible () =
  let at_one () =
    let c = Compose.pair (x_at 1) always_x in
    (c, List.hd (Dist.support (Psioa.step c (Psioa.start c) (act "k.tick"))))
  in
  let incompatible what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Compose.Incompatible" what
    | exception Compose.Incompatible msg -> msg
  in
  let c, q = at_one () in
  let unread = incompatible "step, signature not read" (fun () -> Psioa.step c q (act "x")) in
  let c, q = at_one () in
  let read = incompatible "signature" (fun () -> Psioa.signature c q) in
  Alcotest.(check string) "step after the read" read
    (incompatible "step after the read" (fun () -> Psioa.step c q (act "x")));
  Alcotest.(check string) "same message either way" read unread

(* The entry answers only at the physically same state: a step taken
   while it holds another state, or at an equal copy, returns what a
   fresh composite returns, and an action enabled only at the entry's
   state stays disabled. *)
let test_compose_step_other_entry () =
  let fresh () = Compose.pair (Fixtures.coin "c") (Fixtures.counter "k") in
  let flip = act "c.flip" in
  let q0 = Psioa.start (fresh ()) in
  let expected = Psioa.step (fresh ()) q0 flip in
  let heads = Value.pair (Value.tag "heads" Value.unit) (Value.tag "ctr" (Value.int 0)) in
  let c = fresh () in
  ignore (Psioa.signature c heads);
  Alcotest.(check bool) "entry at another state" true (Dist.equal expected (Psioa.step c q0 flip));
  ignore (Psioa.signature c heads);
  Alcotest.(check bool) "an equal copy" true
    (Dist.equal expected (Psioa.step c (Value.of_bits (Value.to_bits q0)) flip));
  ignore (Psioa.signature c heads);
  Alcotest.(check bool) "c.heads not enabled at the start" true
    (Option.is_none (Psioa.transition c q0 (act "c.heads")))

(* A move to one state with mass 1/2 is not a Dirac: the joint step, of
   [pair] and of [parallel], keeps the mass. *)
let test_compose_step_sub_dirac () =
  let half = act "h.half" in
  let h =
    Psioa.make ~name:"h" ~start:Value.unit
      ~signature:(fun _ -> Sigs.of_lists ~o:[ half ] ())
      ~transition:(fun q a ->
        if Action.equal a half then Some (Vdist.make [ (q, Rat.half) ]) else None)
  in
  List.iter
    (fun (what, c) ->
      let d = Psioa.step c (Psioa.start c) half in
      Alcotest.(check int) (what ^ ": one state") 1 (Dist.size d);
      Alcotest.(check string) (what ^ ": mass 1/2") "1/2" (Rat.to_string (Dist.mass d)))
    [ ("pair", Compose.pair h (Fixtures.counter "k"));
      ("parallel", Compose.parallel [ Fixtures.counter "k"; h ]) ]

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
          qtest prop_sigs_hide_preserves_all;
          qtest prop_sigs_defs_literal;
          qtest prop_sigs_filter_ext ] );
      ( "psioa",
        [ Alcotest.test_case "fixtures validate" `Quick test_validate_fixtures;
          Alcotest.test_case "broken automata rejected" `Quick test_validate_broken;
          Alcotest.test_case "validate refuses a truncated sweep" `Quick test_validate_truncated;
          Alcotest.test_case "reachable coin" `Quick test_reachable_coin;
          Alcotest.test_case "reachable limits" `Quick test_reachable_limit;
          Alcotest.test_case "step not enabled" `Quick test_step_not_enabled;
          Alcotest.test_case "memoize equivalent" `Quick test_memoize_equivalent;
          Alcotest.test_case "memoize keeps the first stored result" `Quick
            test_memoize_first_stored_wins;
          Alcotest.test_case "universal actions" `Quick test_universal_actions;
          Alcotest.test_case "universal actions refuse a cut sweep" `Quick
            test_universal_actions_refuse_cut_sweep ] );
      ( "sig-cache",
        [ Alcotest.test_case "two reads at one state evaluate once" `Quick
            test_sig_cache_same_state;
          Alcotest.test_case "an equal copy evaluates again" `Quick test_sig_cache_equal_copy;
          Alcotest.test_case "a raising signature raises every read" `Quick
            test_sig_cache_raising;
          Alcotest.test_case "one entry, not a table" `Quick test_sig_cache_one_entry ] );
      ( "exec",
        [ Alcotest.test_case "basics" `Quick test_exec_basic;
          Alcotest.test_case "concat" `Quick test_exec_concat;
          Alcotest.test_case "hash reads every step" `Quick test_exec_hash_whole;
          Alcotest.test_case "prefix" `Quick test_exec_prefix;
          Alcotest.test_case "trace hides internal" `Quick test_exec_trace_hides_internal;
          qtest prop_exec_first_hit ] );
      ( "compose",
        [ Alcotest.test_case "synchronization" `Quick test_compose_sync;
          Alcotest.test_case "product measure (Def 2.5)" `Quick test_compose_product_measure;
          Alcotest.test_case "shared outputs incompatible" `Quick test_compose_incompatible_outputs;
          Alcotest.test_case "partial compatibility refuses a cut sweep" `Quick
            test_partially_compatible_refuses_cut_sweep;
          Alcotest.test_case "three-way pipeline" `Quick test_compose_parallel_three;
          Alcotest.test_case "execution projection" `Quick test_proj_exec;
          Alcotest.test_case "one signature read per component per step" `Quick
            test_compose_one_signature_per_step;
          Alcotest.test_case "nested pair: one leaf read per level" `Quick
            test_compose_nested_one_signature_per_level;
          Alcotest.test_case "a step after a read composes nothing" `Quick
            test_compose_step_reads_entry;
          Alcotest.test_case "a step at an incompatible state raises" `Quick
            test_compose_step_incompatible;
          Alcotest.test_case "a step beside another entry" `Quick test_compose_step_other_entry;
          Alcotest.test_case "a sub-Dirac move keeps its mass" `Quick test_compose_step_sub_dirac ] );
      ( "workloads",
        [ Alcotest.test_case "fifo preserves order" `Quick test_fifo_order;
          Alcotest.test_case "timer fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "random walk exact measure" `Quick test_random_walk_measure;
          Alcotest.test_case "random walk clamps" `Quick test_walk_clamps ] );
      ( "hide-rename",
        [ Alcotest.test_case "hiding (Def 2.7)" `Quick test_hide_psioa;
          Alcotest.test_case "renaming closure (Lemma A.1)" `Quick test_rename_lemma_a1;
          Alcotest.test_case "restricted renaming" `Quick test_rename_only_restricts ] ) ]
