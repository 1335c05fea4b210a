(** Exact JSON encoding of measure results.

    States and actions travel as their canonical bit-string encodings
    ([Value.to_bits] / [Action.to_bits] rendered by [Bits.to_string]), and
    probabilities as [Rat.to_string] rationals — the wire never touches
    floating point, so a decoded distribution is {e bit-identical} to the
    encoded one. Used by the daemon to render replies and by the test
    client to reconstruct distributions for differential comparison. *)

open Cdse_prob
open Cdse_psioa

val exec_to_json : Exec.t -> Json.t
(** [{"start": bits, "steps": [[action-bits, state-bits], ...]}]. *)

val dist_to_json : Exec.t Dist.t -> Json.t
(** [{"items": [[exec, rat], ...], "mass": rat, "deficit": rat,
    "size": int}]. Items are emitted in the distribution's canonical
    (sorted) order, each exactly as {!exec_to_json} renders it. Each
    distinct state and action is encoded once per call, through a table
    keyed by [Value.equal]/[Action.equal], however many executions repeat
    it in their prefixes. *)

val dist_of_json : Json.t -> Exec.t Dist.t
(** Rebuilds via [Dist.make ~compare:Exec.compare], i.e. renormalizes to
    the same canonical form the engines produce; raises
    [Invalid_argument] on malformed input. *)
