(** Zero-dependency observability: counters, histograms and gauges for the
    measure engine and its supporting layers.

    The library is compiled in unconditionally but designed to be free when
    disabled: every mutation is guarded by a single [if enabled ()] branch on
    an immutable-after-startup [bool ref]. Instrumented modules register their
    instruments once at module initialisation, so steady-state cost with
    stats off is one load + branch per instrumentation site.

    All state is global to the process. Counters and trace events are
    safe to record from worker domains {e through a probe} (see
    {!with_worker}): the multicore measure engine installs one probe per
    worker domain, increments and events accumulate locally, and the
    coordinating domain folds them into the global records once the
    workers have joined — no locks on the hot path. Histograms
    and gauges are coordinator-only: they must never be mutated from two
    domains at once (the engine only touches them outside parallel
    sections).
    Registration takes a mutex, so concurrent construction-time lookups are
    safe. Instrument names are dot-separated lowercase paths
    ([measure.frontier.width]) and registration is idempotent: asking for
    an existing name returns the same instrument.

    Depends on nothing but the stdlib — [Rat] itself is instrumented with
    this module, so exact rationals cross the boundary as strings (see
    {!gauge}). *)

(** {1 Master switch} *)

val enabled : unit -> bool
(** Stats collection switch; [false] at startup. *)

val set_enabled : bool -> unit

(** {1 Counters}

    Monotonic non-negative integer counters. *)

type counter

val counter : string -> counter
(** [counter name] registers (or retrieves) the counter called [name]. *)

val incr : counter -> unit
(** Add 1 when enabled; no-op otherwise. *)

val add : counter -> int -> unit
(** Add [k >= 0] when enabled; no-op otherwise. *)

val count : counter -> int
(** Current value (readable even while disabled). *)

val counter_value : string -> int
(** Value of a counter by name; 0 if it was never registered. *)

(** {1 Worker probes}

    One per-domain accumulator for everything a worker domain of the
    multicore measure engine records: counter deltas and {!Trace} events.
    While a probe is installed (via {!with_worker}) in the calling domain,
    {!incr}/{!add} and every trace event divert into it instead of the
    global records; the coordinating domain folds it in with {!join} once
    the worker has finished. Counter {e sums} are therefore conserved
    regardless of how work is split across domains. Histograms and gauges
    must stay on the coordinating domain. *)

type probe

val probe : worker:int -> probe
(** A fresh, empty probe for worker [worker]; its trace events carry that
    index as their domain id (the Chrome [tid]). *)

val with_worker : probe -> (unit -> 'a) -> 'a
(** [with_worker p f] installs [p] in {e this} domain's local storage for
    the duration of [f]: every {!incr}/{!add} and trace event recorded by
    [f] (at any depth) accumulates into [p]. The previously installed probe,
    if any, is restored afterwards. A probe must not be installed in two
    domains at the same time. *)

val join : probe -> unit
(** Fold the probe's counter deltas into the global counters and its events
    and drop count into the trace event store, and empty the probe. Call
    from the coordinating domain once the probe's worker has finished; not
    safe concurrently with the owner still writing. *)

(** {2 Trace event store}

    The storage behind {!Trace}, which owns the clock, the on/off switch and
    the exporters. Events recorded on the coordinator land in the store at
    once; events recorded under a probe wait in it until {!join}. Both the
    store and each probe hold at most [capacity] events and count the
    rest as dropped. *)

type event = {
  ev_name : string;
  ev_dom : int;
  ev_ts : float;
  ev_dur : float;
  ev_instant : bool;
  ev_args : (string * string) list;
}

val record : event -> unit
(** Into the installed probe, or into the store when none is. *)

val worker : unit -> int
(** The installed probe's worker index; 0 (the coordinator) when none is. *)

val clear_events : ?capacity:int -> unit -> unit
(** Empty the store and reset its drop count; [capacity], when given,
    becomes the bound for the store and for every probe. *)

val events : unit -> event list
(** The stored events, newest first. *)

val dropped_events : unit -> int

(** {1 Histograms}

    Power-of-two histograms for small integer magnitudes (frontier widths,
    layer sizes). Bucket [0] holds observations [<= 0]; bucket [i >= 1]
    holds observations in [[2^(i-1), 2^i - 1]]. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one observation when enabled; no-op otherwise. *)

val hist_count : histogram -> int
(** Number of observations. *)

val hist_sum : histogram -> int
val hist_max : histogram -> int

val hist_min : histogram -> int
(** Smallest observation; 0 when empty. *)

(** {1 Gauges}

    Last-write-wins text gauges. Used for values that are not integers —
    in particular exact rationals, recorded via [Rat.to_string] so that
    readers can reparse them losslessly with [Rat.of_string]. *)

type gauge

val gauge : string -> gauge

val set_gauge : gauge -> string -> unit
(** Record the value when enabled; no-op otherwise. *)

val gauge_value : string -> string option
(** Last recorded value of a gauge by name; [None] if never set. *)

(** {1 Snapshot / reset / report} *)

type histogram_stats = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;  (** (bucket upper bound, count), non-empty buckets only *)
}

val hist_stats : histogram -> histogram_stats
(** Direct bucket-level view of one histogram, without building a full
    {!snapshot} — used by the serving layer's [stats] endpoint to compute
    latency percentiles per request. *)

val hist_percentile : histogram_stats -> float -> int
(** [hist_percentile st p] (with [0 < p <= 1]) is an upper bound on the
    [p]-th percentile of the recorded observations: the smallest recorded
    bucket upper bound by which at least [ceil (p * count)] observations
    have fallen, capped at [h_max] (so [p = 1] is the exact max). Exact up
    to the power-of-two bucket resolution; 0 for an empty histogram. *)

type snapshot = {
  s_counters : (string * int) list;      (** sorted by name *)
  s_gauges : (string * string) list;     (** sorted by name; set gauges only *)
  s_histograms : (string * histogram_stats) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every registered instrument (the enabled flag is kept). *)

val with_stats : (unit -> 'a) -> 'a * snapshot
(** [with_stats f] resets all instruments, runs [f] with stats enabled, and
    returns [f ()]'s result together with the resulting snapshot; the
    previous enabled state is restored afterwards (instrument values are
    left as [f] produced them, not restored). *)

val report : Format.formatter -> snapshot -> unit
(** Human-readable multi-line rendering, stable order. *)
