(** LRU result cache with incremental-deepening frontier reuse.

    Keys are the canonical {!Protocol.query_key} strings. Each entry
    stores the exact distribution (plus truncation deficit for budgeted
    queries) and, for unbudgeted queries, the engine frontier at the
    entry's depth, so that a later request on the same {!Protocol.query_line}
    at depth [d + k] can resume from the deepest cached frontier at depth
    [<= d + k] instead of recomputing from the root.

    Thread-safe: every operation takes the cache mutex (entries are
    immutable apart from the LRU tick, and the stored distributions are
    never mutated, so handing them out unlocked is safe). Instruments
    [serve.cache.hit] / [serve.cache.miss] / [serve.cache.evict] and the
    [serve.cache.entries] gauge. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched

type entry = {
  e_line : string;
  e_dist : Exec.t Dist.t;
  e_deficit : Rat.t option;  (** [Some _] iff the stored result was truncated *)
  e_frontier : Measure.frontier option;
  e_render : string option ref;
      (** Rendered dist JSON, memoized by the server on first reply:
          rendering walks every state through [Value.to_bits] and costs
          more than the measure itself for small models, so warm hits
          must not pay it again. Benign under races — both writers
          produce the identical string. *)
}

type t

val create : cap:int -> t
(** [cap >= 1] entries; least-recently-used eviction beyond that. *)

val find : t -> key:string -> entry option
(** Exact-key lookup; refreshes the entry's LRU position and counts a hit
    or miss. *)

val best_frontier : t -> line:string -> depth:int -> Measure.frontier option
(** Deepest cached frontier on [line] with [f_depth <= depth] — the
    resume point for incremental deepening. Does not count hit/miss and
    does not refresh LRU positions (a resume re-adds the deeper entry
    anyway). *)

val add :
  t ->
  key:string ->
  line:string ->
  dist:Exec.t Dist.t ->
  ?deficit:Rat.t ->
  ?frontier:Measure.frontier ->
  ?render:string option ref ->
  unit ->
  unit
(** Insert (or overwrite) and evict the least-recently-used entry if over
    capacity. Overwriting an existing key is not an error — two executors
    racing on the same query both insert the same (deterministic) result.
    [render] shares the caller's render-memo cell with the entry (fresh
    and empty by default). *)
