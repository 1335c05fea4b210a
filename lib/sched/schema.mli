(** Scheduler schemas (Definition 3.2).

    A schema maps any PSIOA (or PCA) to a set of its schedulers — the
    quantification domain of the implementation relations (Definition
    4.12). The checkers in {!Cdse_secure} search a schema's (finite)
    instances for the existential "there is a matching σ'". *)

open Cdse_psioa

type t = { name : string; instantiate : Psioa.t -> Scheduler.t list }

val make : name:string -> (Psioa.t -> Scheduler.t list) -> t

val standard : bound:int -> t
(** Uniform, first-enabled and round-robin, all [bound]-bounded
    (Definition 4.6). *)

val first_enabled : t
(** The one {!Scheduler.first_enabled} scheduler: one deterministic
    interleaving per automaton, so an exact (ε = 0) claim matches it
    against the other side's first-enabled run. *)

val deterministic : bound:int -> t
(** First-enabled and round-robin only. Used for exact (ε = 0) emulation
    claims discharged by schema search: a randomized σ generally needs a
    bespoke matching scheduler constructed from the simulation proof,
    which a finite canned schema cannot supply. *)

val oblivious : scripts:Action.t list list -> t
(** Off-line schema: one scheduler per scripted action sequence
    ({!Scheduler.oblivious}). Creation-oblivious in the sense of
    Section 4.4. *)

val oblivious_local : scripts:Action.t list list -> t
(** Closed-world off-line schema ({!Scheduler.oblivious_local}): scripted,
    never firing free inputs. *)

val instantiate : t -> Psioa.t -> Scheduler.t list

val bounded_instantiate : t -> bound:int -> Psioa.t -> Scheduler.t list
(** Instances with the Definition 4.6 bound applied on top. *)
