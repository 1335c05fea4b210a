(** On-chain settlement ledger.

    The static member of the dynamic subchain system: receives
    [ledger.settle (i, amount)] inputs from dying subchains, accumulates
    the total, and announces it via [ledger.report (total)] after each
    settlement. Input-enabled on settlements at every state, so
    settlements may race with reports. *)

open Cdse_psioa

val make : n_subchains:int -> max_total:int -> unit -> Psioa.t

val total_of : Value.t -> int option
(** The recorded total of a ledger state. *)
