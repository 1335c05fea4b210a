(** Scheduler schemas (Definition 3.2).

    A schema maps any PSIOA (or PCA) to a set of its schedulers. The
    checkers in {!Cdse_secure} quantify over the (finite) scheduler lists a
    schema produces for the automata at hand. *)

open Cdse_psioa

type t = { name : string; instantiate : Psioa.t -> Scheduler.t list }

let make ~name instantiate = { name; instantiate }

(** All the built-in deterministic/uniform schedulers, bounded at [b]. *)
let standard ~bound =
  make ~name:(Printf.sprintf "standard[%d]" bound) (fun a ->
      List.map (Scheduler.bounded bound)
        [ Scheduler.uniform a; Scheduler.first_enabled a; Scheduler.round_robin a ])

let first_enabled = make ~name:"first-enabled" (fun a -> [ Scheduler.first_enabled a ])

(** Deterministic sub-schema: the two deterministic standard schedulers.
    Used for exact (ε = 0) emulation claims where the matching scheduler
    on the specification side is found by schema search — a randomized σ
    generally needs a bespoke mate constructed from the simulation proof,
    which a finite canned schema cannot supply. *)
let deterministic ~bound =
  make ~name:(Printf.sprintf "deterministic[%d]" bound) (fun a ->
      List.map (Scheduler.bounded bound) [ Scheduler.first_enabled a; Scheduler.round_robin a ])

(** Oblivious (off-line) schema: one scheduler per scripted action sequence.
    Oblivious schedulers are creation-oblivious (Section 4.4): the script
    does not look at the state, hence not at which sub-automata exist. *)
let oblivious ~scripts =
  make ~name:"oblivious" (fun a -> List.map (Scheduler.oblivious a) scripts)

(** Closed-world off-line schema: scripted, but never firing free inputs
    (see {!Scheduler.oblivious_local}). *)
let oblivious_local ~scripts =
  make ~name:"oblivious-local" (fun a -> List.map (Scheduler.oblivious_local a) scripts)

let instantiate schema a = schema.instantiate a

(** Every scheduler a schema produces for [a], with the Definition 4.6
    bound applied. *)
let bounded_instantiate schema ~bound a =
  List.map (Scheduler.bounded bound) (schema.instantiate a)
