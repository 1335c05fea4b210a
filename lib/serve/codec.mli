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

val dist_to_string : Exec.t Dist.t -> string
(** [{"items": [[exec, rat], ...], "mass": rat, "deficit": rat,
    "size": int}], compact, in one pass. Items are emitted in the
    distribution's canonical (sorted) order, each exactly as
    {!exec_to_json} renders it.

    Each distinct state and action is encoded and quoted once per call,
    through a table keyed by [Value.equal]/[Action.equal], however many
    executions repeat it; an encoding is a run of ['0']/['1'], so nothing
    is escape-scanned. An item copies the text of the steps it shares with
    the item before it, found by [==] on the pairs of [Exec.steps] (a
    cone's siblings hold their common prefix physically), and renders only
    the rest; executions that share nothing physically, e.g. decoded by
    {!dist_of_json}, are rendered whole, to the same bytes.

    The text is written into one growable buffer that every call reuses
    under a lock, and returned as a fresh string. The buffer stays at its
    largest size, like a connection's reply buffer. The daemon's workers
    are threads of one domain, so the lock costs no parallelism. *)

val dist_to_json : Exec.t Dist.t -> Json.t
(** [Json.Raw (dist_to_string d)]. The daemon splices {!dist_to_string}'s
    text into its replies directly. *)

val dist_of_json : Json.t -> Exec.t Dist.t
(** Rebuilds via [Dist.make ~compare:Exec.compare], i.e. renormalizes to
    the same canonical form the engines produce; raises
    [Invalid_argument] on malformed input. *)
