(* Quickstart: define two PSIOAs, compose them, schedule the composite,
   compute the exact execution measure, and check an implementation
   relation — the end-to-end tour of the foundational layer.

   Run with:  dune exec examples/quickstart.exe *)

open Cdse

let act ?payload name = Action.make ?payload name

(* A biased coin: one internal flip, then it forever announces the
   outcome. *)
let coin ~p name =
  let init = Value.tag "init" Value.unit in
  let side b = Value.tag (if b then "heads" else "tails") Value.unit in
  let flip = act (name ^ ".flip") in
  let announce b = act (name ^ if b then ".heads" else ".tails") in
  Psioa.make ~name ~start:init
    ~signature:(fun q ->
      if Value.equal q init then Sigs.of_lists ~h:[ flip ] ()
      else if Value.equal q (side true) then Sigs.of_lists ~o:[ announce true ] ()
      else Sigs.of_lists ~o:[ announce false ] ())
    ~transition:(fun q a ->
      if Value.equal q init && Action.equal a flip then
        Some (Vdist.coin ~p (side true) (side false))
      else if Value.equal q (side true) && Action.equal a (announce true) then
        Some (Vdist.dirac (side true))
      else if Value.equal q (side false) && Action.equal a (announce false) then
        Some (Vdist.dirac (side false))
      else None)

(* An environment that accepts when it hears heads. *)
let env name =
  let s k = Value.tag "env" (Value.int k) in
  let heads = act "c.heads" in
  let acc = act "acc" in
  Psioa.make ~name ~start:(s 0)
    ~signature:(fun q ->
      match q with
      | Value.Tag ("env", Value.Int 0) -> Sigs.of_lists ~i:[ heads ] ()
      | Value.Tag ("env", Value.Int 1) -> Sigs.of_lists ~o:[ acc ] ()
      | _ -> Sigs.empty)
    ~transition:(fun q a ->
      match q with
      | Value.Tag ("env", Value.Int 0) when Action.equal a heads -> Some (Vdist.dirac (s 1))
      | Value.Tag ("env", Value.Int 1) when Action.equal a acc -> Some (Vdist.dirac (s 2))
      | _ -> None)

let () =
  Pretty.section "1. Build and validate a PSIOA";
  let fair = coin ~p:Rat.half "c" in
  (match Psioa.validate fair with
  | Ok () -> print_endline "fair coin: valid PSIOA (Definition 2.1)"
  | Error e -> failwith e);

  Pretty.section "2. Compose with an environment (Definitions 2.4-2.5, 2.18)";
  let composite = Compose.pair (env "env") fair in
  Format.printf "composite signature at start: %a@."
    Sigs.pp (Psioa.signature composite (Psioa.start composite));

  Pretty.section "3. Schedule and compute the exact execution measure (Section 3)";
  let sched = Scheduler.bounded 3 (Scheduler.first_enabled composite) in
  let dist = Measure.exec_dist composite sched ~depth:5 in
  Format.printf "completed executions: %d, total mass: %s@." (Dist.size dist)
    (Rat.to_string (Dist.mass dist));
  List.iter
    (fun (e, p) ->
      Format.printf "  p=%-5s %s@." (Rat.to_string p)
        (String.concat " · " (List.map Action.to_string (Exec.actions e))))
    (Dist.items dist);

  Pretty.section "4. Observe through an insight function (Definitions 3.4-3.5)";
  let f = Insight.accept composite in
  let obs = Insight.apply f composite sched ~depth:5 in
  Format.printf "P(accept) = %s@." (Rat.to_string (Dist.prob obs (Value.bool true)));

  Pretty.section "5. Approximate implementation (Definition 4.12)";
  let check b_bias =
    Impl.approx_le
      ~schema:(Schema.standard ~bound:3)
      ~insight_of:Insight.accept
      ~envs:[ env "env" ]
      ~eps:Rat.zero ~q1:3 ~q2:3 ~depth:5 ~a:fair ~b:(coin ~p:b_bias "c")
  in
  let same = check Rat.half in
  Format.printf "fair ≤ fair at ε=0: %b (distance %s)@." same.Impl.holds
    (Rat.to_string same.Impl.worst);
  let biased = check (Rat.of_ints 3 4) in
  Format.printf "fair ≤ biased(3/4) at ε=0: %b (distance %s)@." biased.Impl.holds
    (Rat.to_string biased.Impl.worst);
  print_endline "\nquickstart: done"
