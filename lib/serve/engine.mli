(** Socket-free compute core of the daemon: model registry + result cache
    + measure dispatch. Split from {!Server} so the cache semantics can be
    exercised directly (the qcheck property suite drives this module with
    a tiny capacity to force LRU churn, without any sockets).

    Thread-safe: the registry and cache take their own locks; queries that
    request more than one domain additionally serialize on an internal
    mutex, so concurrent multicore requests run one after another instead
    of oversubscribing the machine. *)

open Cdse_prob
open Cdse_psioa
open Cdse_secure

type t

val create : ?cache_cap:int -> ?domains:int -> unit -> t
(** [cache_cap] bounds the result cache (default 64 entries); [domains] is
    the default per-query domain count (default 1), overridable per
    request. *)

val model : t -> Protocol.model -> Psioa.t
(** Hash-consed spec elaboration: the first request for a spec builds the
    automaton ([serve.model.miss]), later ones reuse it
    ([serve.model.hit]). *)

type measure_result = {
  m_dist : Exec.t Dist.t;
  m_deficit : Rat.t option;  (** [Some lost] iff truncated by a budget *)
  m_cached : bool;  (** exact cache hit — no engine work at all *)
  m_resumed_from : int option;
      (** depth of the frontier this computation resumed from, when
          incremental deepening applied *)
  m_render : string option ref;
      (** the cache entry's render memo (see {!Cache.entry}): the server
          fills it with the rendered dist JSON on first reply so warm
          hits skip the codec *)
}

val measure : t -> Protocol.query -> measure_result
(** Cache-first measure. Unbudgeted queries store their frontier and
    resume from the deepest cached frontier on the same
    {!Protocol.query_line}; budgeted queries bypass frontier logic (their
    truncation makes resumption unsound) but still cache exact-key
    results. Bit-identical to a cold [Measure.exec_dist] at the same
    query — that is the determinism contract the protocol tests enforce. *)

val reach : t -> Protocol.query -> state:Cdse_util.Bits.t -> Rat.t * bool
(** Probability that a completed execution visits the given state (exact
    encoded-value match). Under [`Quotient] compression this delegates to
    [Measure.reach_prob] (the predicate must refine the quotient), else it
    folds over the — possibly cached — measure result. The boolean
    reports whether the answer came from cache. *)

val emulate :
  protocol:Protocol.protocol_name -> broken:bool -> Impl.verdict
(** The CLI's four toy-protocol emulation checks, server-side. *)
