(** Wire protocol of the [cdse_serve] daemon.

    Requests and replies are newline-delimited JSON objects over a Unix
    socket. Every request carries an integer ["id"] (echoed in the reply,
    so clients may pipeline) and an ["op"]. The measure-bearing ops
    ([measure], [reach]) name their model and scheduler {e by
    specification} — a seed/parameter record, not a serialized automaton —
    which is what makes server-side model hash-consing and result caching
    sound: two requests with the same spec denote the same automaton.

    {2 Grammar}

    {v
    request  := { "id": int, "op": op, ... }
    op       := "ping" | "measure" | "reach" | "emulate"
              | "stats" | "shutdown"
    measure  := { ..., "model": model, "sched": sched, "depth": int,
                  "compress"?: "off"|"quotient",
                  "max_execs"?: int, "max_width"?: int }
    reach    := { ..., "model": model, "sched": sched, "depth": int,
                  "compress"?: "off"|"quotient", "state": bits }
    emulate  := { ..., "protocol": "channel"|"coin-flip"|
                       "secret-share"|"broadcast", "broken"?: bool }
    model    := { "kind": "coin", "p"?: rat }
              | { "kind": "random_walk", "span"?: int }
              | { "kind": "counter", "bound"?: int }
              | { "kind": "random_auto", "seed": int, "states"?: int,
                  "actions"?: int, "branching"?: int }
              | { "kind": "random_pca", "seed": int, "members"?: int,
                  "faults"?: bool }
              | { "kind": "faulty_channel", "seed": int }
              | { "kind": "committee", "validators"?: int, "blocks"?: int }
    sched    := { "kind": "uniform"|"first_enabled"|"round_robin",
                  "fault_budget"?: int, "bound"?: int }
    rat      := string accepted by [Rat.of_string] ("1/2")
    bits     := string accepted by [Bits.of_string] ("0101")
    reply    := { "id": int|null, "ok": true,  "result": ... }
              | { "id": int|null, "ok": false,
                  "error": { "kind": "protocol"|"overloaded"|"engine",
                             "field": string, "msg": string } }
    v}

    Parsing applies the library defaults ([coin] p = 1/2, [random_auto]
    6 states / 4 actions / branching 2, …), so a spec written with explicit
    defaults and one relying on them produce the {e same} canonical key —
    and hence hit the same cache entry.

    Fields outside the grammar are ignored. That includes the engine
    knobs older clients sent per request ("engine", "memo", "domains"):
    every query runs the one memoizing engine. The retired compression
    level ["compress": "hcons"] is an unknown level and gets a [protocol]
    error naming ["compress"]. A [reach] carrying "max_execs" or
    "max_width" is rejected with a [protocol] error naming the field: its
    reply has no tag or lost mass, so a budget would make it a silent
    lower bound. A [reach] whose "state" is not a bit string that decodes
    to a value ([Value.of_bits]) gets a [protocol] error naming
    ["state"]. So does a field below its lower bound: 0 for ["depth"], ["max_execs"],
    ["max_width"], ["states"], ["validators"] and ["blocks"], 1 for
    ["actions"], ["branching"] and ["members"]; and a ["p"] outside
    [[0, 1]]. No field has an upper cap. *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched

(** {1 Errors} *)

exception
  Protocol_error of { id : int option; field : string; msg : string }
(** A request the daemon could not interpret: unparseable JSON, missing or
    ill-typed field, unknown enum value. [field] names the offending field
    (["request"] for body-level failures); [id] is the request id when it
    was recoverable from the body. The daemon replies with an
    [ok = false] / [kind = "protocol"] error object and {e keeps the
    connection open}. A printer is registered. *)

exception Overloaded of { id : int option; queue_depth : int; cap : int }
(** Raised (and reported as [kind = "overloaded"]) when a measure-bearing
    request arrives while the job queue already holds [cap] entries. The
    request is rejected without being enqueued; already-queued work is
    unaffected. A printer is registered. *)

(** {1 Specifications} *)

type model =
  | Coin of { p : Rat.t }
  | Random_walk of { span : int }
  | Counter of { bound : int }
  | Random_auto of { seed : int; states : int; actions : int; branching : int }
  | Random_pca of { seed : int; members : int; faults : bool }
  | Faulty_channel of { seed : int }
  | Committee of { validators : int; blocks : int }

type sched_kind = Uniform | First_enabled | Round_robin

type sched = {
  s_kind : sched_kind;
  s_fault_budget : int option;  (** wrap with [Fault.budget_sched k] *)
  s_bound : int option;  (** wrap with [Scheduler.bounded b]; [None] = unbounded *)
}

type query = {
  q_model : model;
  q_sched : sched;
  q_depth : int;
  q_compress : Measure.compress;
  q_max_execs : int option;
  q_max_width : int option;
}

type protocol_name = [ `Channel | `Coin_flip | `Secret_share | `Broadcast ]

val protocol_names : (string * protocol_name) list
(** The wire names of the [emulate] protocols — [channel], [coin-flip],
    [secret-share] and [broadcast] — in that order; also the CLI's
    [emulate --protocol] values. *)

type op =
  | Ping
  | Measure of query
  | Reach of query * Cdse_util.Bits.t  (** probability of reaching this state *)
  | Emulate of { protocol : protocol_name; broken : bool }
  | Stats
  | Shutdown

type request = { r_id : int; r_op : op }

val parse_request : string -> request
(** Parse one wire line. Raises {!Protocol_error} on any failure. *)

(** {1 Canonical cache keys}

    The cache key {e includes} compression mode
    (a [`Quotient] distribution is over representatives) and the
    exec/width budgets (truncation changes the answer). *)

val model_key : model -> string

val query_line : query -> string
(** Everything except the depth — requests sharing a line are the same
    converging computation at different depths, which is what the
    incremental-deepening frontier reuse keys on. Budgeted queries get a
    distinct line (and never share frontiers). *)

val query_key : query -> string
(** [query_line] + depth: the exact result-cache key. *)

val is_budgeted : query -> bool

(** {1 Spec elaboration} *)

val build_model : model -> Psioa.t
(** Deterministic: equal specs yield behaviourally identical automata
    (seeded generators), so elaboration may be cached by {!model_key}. *)

val build_sched : Psioa.t -> sched -> Scheduler.t
