(** Zero-dependency observability: counters, histograms and gauges for the
    measure engine and its supporting layers.

    The library is compiled in unconditionally but designed to be free when
    disabled: every mutation is guarded by a single [if enabled ()] branch on
    an immutable-after-startup [bool ref]. Instrumented modules register their
    instruments once at module initialisation, so steady-state cost with
    stats off is one load + branch per instrumentation site.

    All state is global to the process, and nothing records from a second
    domain. Registration takes a mutex, so the daemon's threads can
    register and look up instruments concurrently. Instrument names are
    dot-separated lowercase paths ([measure.frontier.width]) and
    registration is idempotent: asking for an existing name returns the
    same instrument.

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

(** {1 Histograms}

    Power-of-two histograms for small integer magnitudes (frontier widths,
    layer sizes). Bucket [0] holds observations [<= 0]; bucket [i >= 1]
    holds observations in [[2^(i-1), 2^i - 1]]. *)

type histogram

val histogram : string -> histogram

val observe : histogram -> int -> unit
(** Record one observation when enabled; no-op otherwise. *)

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
