(** Test-suite alias for the shared workload generators. *)
include Cdse_gen.Workloads

open Cdse_psioa

(* [counted a] is [a] with a probe on its signature: [evals q] is the
   number of times the signature has been evaluated at state [q] since the
   last [reset ()]. Tests pin how often a combinator reads a component's
   signature per transition with it. *)
let counted a =
  let calls = ref [] in
  let evals q = try List.assoc q !calls with Not_found -> 0 in
  let signature q =
    calls := (q, evals q + 1) :: List.remove_assoc q !calls;
    Psioa.signature a q
  in
  let auto =
    Psioa.make ~name:(Psioa.name a) ~start:(Psioa.start a) ~signature
      ~transition:(Psioa.transition a)
  in
  (auto, evals, fun () -> calls := [])
