(** Span tracing for the measure engine: where the wall-clock goes.

    {!Obs} answers "how many" (counters, histograms); this module answers
    "when and for how long". It records {e complete spans} (a name, a
    domain id, a start timestamp and a duration) and {e instant events}
    into per-domain ring buffers, and exports them either as Chrome
    trace-event JSON — load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} for an interactive per-domain
    timeline — or as a self-profiling text summary that attributes each
    frontier layer's time to expansion and quotient work, and each
    subtree worker's time to work and idle waiting.

    {2 Cost model}

    Like {!Obs}, the tracer is compiled in unconditionally and designed to
    be free when disabled: every recording site is a load and a branch on
    one [bool ref], argument lists are thunks that are never forced while
    disabled, and {!begin_span} returns a shared null token without
    reading the clock. Enabled, a span costs two clock reads and one
    record write into a preallocated ring.

    {2 Concurrency}

    The same discipline as {!Obs} counters: a worker domain installs a
    ring buffer in its domain-local storage ({!with_buffer}) and every
    event it records lands there, written by that domain alone — no locks,
    no atomics on the hot path. The coordinating domain folds worker
    buffers into the global event store once the workers have joined
    ({!drain}).
    Recording {e without} an installed buffer is reserved for the
    coordinating domain (the sequential engine, checker phases, CLI
    drivers), exactly like histograms and gauges in {!Obs}. Toggle tracing
    only between engine runs, never while worker domains are live.

    {2 Clock}

    Timestamps are microseconds of wall-clock ([Unix.gettimeofday])
    relative to the {!start} call. The engine's spans are long enough
    (layers, subtrees) that µs resolution is ample; durations are
    clamped non-negative so a stepping clock cannot produce a span Chrome
    refuses to render. *)

(** {1 Master switch} *)

val enabled : unit -> bool
(** Tracing switch; [false] at startup. *)

val start : ?capacity:int -> unit -> unit
(** Clear every previously collected event, restart the clock origin and
    enable tracing. [?capacity] (default [65536]) bounds each subsequently
    created ring buffer {e and} is a per-run bound on the global store (a
    full buffer drops further events and counts them, see {!dropped} —
    recording never blocks and never reallocates). *)

val stop : unit -> unit
(** Disable tracing. Collected events are kept for export. *)

val clear : unit -> unit
(** Drop every collected event and reset the dropped-event count. *)

val dropped : unit -> int
(** Events discarded because a ring or the global store was full,
    including drops folded in from drained worker buffers. *)

(** {1 Recording} *)

type args = (string * string) list
(** Span/event arguments, rendered into the Chrome [args] object and the
    per-layer summary. Keys are lowercase identifiers. *)

val span : ?args:(unit -> args) -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a complete span. The argument thunk is
    forced {e after} [f] returns (so it may read results through a ref)
    and only when tracing is enabled. The span is recorded even when [f]
    raises — spans are always balanced. *)

type tok
(** An open span: name, owning domain and start timestamp. A token from a
    disabled {!begin_span} is inert — {!end_span} on it records nothing. *)

val begin_span : string -> tok

val end_span : ?args:(unit -> args) -> tok -> unit
(** Close the span and record it. Call on the domain that opened it. *)

val instant : ?args:(unit -> args) -> string -> unit
(** A zero-duration event (fault injections, takeovers, per-layer stats). *)

(** {1 Per-domain buffers} *)

type buffer

val buffer : dom:int -> buffer
(** A fresh ring buffer whose events carry domain id [dom] (the worker
    index, used as the Chrome [tid]). Capacity is the value given to the
    last {!start}. *)

val acquire_buffer : dom:int -> buffer
(** Like {!buffer}, but reuses a ring retired with {!release_buffer} when
    one of the current capacity is available (its cursor, drop count and
    owning domain are reset) and allocates only otherwise — the engines use
    this so repeated traced runs stop churning a [capacity]-sized array per
    worker per run. Retired rings whose capacity no longer matches the last
    {!start} are discarded. Thread-safe (one mutex round-trip, off the
    recording hot path). *)

val release_buffer : buffer -> unit
(** Return a buffer to the reuse freelist. Call after {!drain}, once the
    buffer is no longer installed in any domain; the buffer must not be
    used again until re-acquired. *)

val with_buffer : buffer -> (unit -> 'a) -> 'a
(** Install the buffer in {e this} domain's local storage for the duration
    of the callback, diverting every event it records (at any depth) into
    it. The previous buffer, if any, is restored afterwards. A buffer must
    not be installed in two domains at once. *)

val drain : buffer -> unit
(** Fold the buffer's events (and its dropped count) into the global store
    and empty it. Call from the coordinating domain once the buffer's
    worker has finished. *)

(** {1 Collected events} *)

type event = {
  ev_name : string;
  ev_dom : int;  (** worker/domain index; 0 = coordinator *)
  ev_ts : float;  (** µs since {!start} *)
  ev_dur : float;  (** µs; 0 for instants *)
  ev_instant : bool;
  ev_args : args;
}

val events : unit -> event list
(** Everything drained or recorded on the coordinator so far, sorted by
    start timestamp. Does not include still-undrained worker buffers. *)

(** {1 Exporters} *)

val to_chrome : unit -> string
(** The collected events as Chrome trace-event JSON (the catapult
    ["traceEvents"] format): complete ["ph": "X"] spans and
    ["ph": "i"] instants on [pid] 0, one [tid] per domain, with
    [thread_name] metadata — loadable in [chrome://tracing] and
    Perfetto. *)

val write_chrome : string -> unit
(** {!to_chrome} to a file. *)

(** {2 Self-profiling summary}

    Parsed from the engine's span vocabulary — layer loop:
    [measure.layer], [measure.expand], [measure.quotient] /
    [quotient.merge], [measure.layer.stats]; barrier-free subtree
    engine: [measure.subtree] (one claimed work unit — a whole subtree —
    counted on its worker's row) and [measure.steal.idle] (a worker
    waiting for stealable work, aggregated into
    {!summary.sm_idle_frac}). Foreign spans are counted but not
    attributed. When one trace covers several engine runs, rows with the
    same layer index aggregate. *)

type layer_row = {
  lr_layer : int;
  lr_width : int;  (** frontier width entering the layer *)
  lr_total_us : float;  (** full layer span *)
  lr_expand_us : float;  (** node expansion *)
  lr_quotient_us : float;  (** bisimulation-quotient pass *)
  lr_stats : args;  (** memo/hcons deltas from [measure.layer.stats] *)
}

type worker_row = {
  wr_dom : int;
  wr_busy_us : float;  (** subtree-span time *)
  wr_idle_us : float;  (** steal-idle time *)
  wr_chunks : int;  (** claimed work units (subtrees) *)
}

type summary = {
  sm_spans : int;
  sm_instants : int;
  sm_dropped : int;
  sm_total_us : float;  (** last event end − first event start *)
  sm_idle_frac : float;
      (** Σ steal-idle ∕ (Σ steal-idle + Σ busy): the fraction of worker
          time spent waiting for stealable work in the subtree engine.
          0 for sequential runs. *)
  sm_imbalance : float;
      (** max ∕ mean of per-worker total busy time — work imbalance
          across the run (≥ 1; 1 when perfectly balanced or sequential) *)
  sm_layers : layer_row list;  (** sorted by layer index *)
  sm_workers : worker_row list;  (** sorted by domain id *)
  sm_chunk_us : float list;  (** all subtree-span durations, sorted ascending *)
}

val summary : unit -> summary

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line rendering: run totals, the idle and imbalance figures, a
    per-layer table, per-worker busy/idle totals and a subtree-duration
    percentile line. *)
