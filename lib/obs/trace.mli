(** Span tracing for the measure engine: where the wall-clock goes.

    {!Obs} answers "how many" (counters, histograms); this module answers
    "when and for how long". It records {e complete spans} (a name, a
    start timestamp and a duration) and {e instant events}, and exports
    them either as Chrome trace-event JSON — load the file in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto} for an
    interactive timeline — or as a self-profiling text summary that
    attributes each frontier layer's time to expansion and quotient
    work.

    {2 Cost model}

    Like {!Obs}, the tracer is compiled in unconditionally and designed to
    be free when disabled: every recording site is a load and a branch on
    one [bool ref], argument lists are thunks that are never forced while
    disabled, and {!begin_span} returns a shared null token without
    reading the clock. Enabled, a span costs two clock reads and one
    list cell in the event store. All events are recorded from one
    domain into one global store.

    {2 Clock}

    Timestamps are microseconds of wall-clock ([Unix.gettimeofday])
    relative to the {!start} call. The engine's spans are long enough
    (layers) that µs resolution is ample; durations are clamped
    non-negative so a stepping clock cannot produce a span Chrome refuses
    to render. *)

(** {1 Master switch} *)

val enabled : unit -> bool
(** Tracing switch; [false] at startup. *)

val start : ?capacity:int -> unit -> unit
(** Clear every previously collected event, restart the clock origin and
    enable tracing. [?capacity] (default [65536], at least 16) bounds the
    event store: a full store drops further events and counts them (see
    {!dropped}) — recording never blocks. *)

val stop : unit -> unit
(** Disable tracing. Collected events are kept for export. *)

val clear : unit -> unit
(** Drop every collected event and reset the dropped-event count. *)

val dropped : unit -> int
(** Events discarded because the store was full. *)

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
(** An open span: name and start timestamp. A token from a disabled
    {!begin_span} is inert — {!end_span} on it records nothing. *)

val begin_span : string -> tok

val end_span : ?args:(unit -> args) -> tok -> unit
(** Close the span and record it. *)

val instant : ?args:(unit -> args) -> string -> unit
(** A zero-duration event (fault injections, takeovers, per-layer stats). *)

(** {1 Collected events} *)

type event = {
  ev_name : string;
  ev_dom : int;  (** the Chrome [tid]; always 0 *)
  ev_ts : float;  (** µs since {!start} *)
  ev_dur : float;  (** µs; 0 for instants *)
  ev_instant : bool;
  ev_args : args;
}

val events : unit -> event list
(** Everything recorded so far, sorted by start timestamp. *)

(** {1 Exporters} *)

val to_chrome : unit -> string
(** The collected events as Chrome trace-event JSON (the catapult
    ["traceEvents"] format), rendered by {!Cdse_util.Json} with one event
    per line: complete ["ph":"X"] spans and ["ph":"i"] instants on
    [pid] 0 and [tid] 0, after one [thread_name] metadata event — loadable
    in [chrome://tracing] and Perfetto. *)

val write_chrome : string -> unit
(** {!to_chrome} to a file. *)

(** {2 Self-profiling summary}

    Parsed from the layer loop's span vocabulary: [measure.layer],
    [measure.expand], [measure.quotient] / [quotient.merge] and
    [measure.layer.stats]. Foreign spans are counted but not
    attributed. When one trace covers several engine runs, rows with the
    same layer index aggregate. *)

type layer_row = {
  lr_layer : int;
  lr_width : int;  (** frontier width entering the layer *)
  lr_total_us : float;  (** full layer span *)
  lr_expand_us : float;  (** node expansion *)
  lr_quotient_us : float;  (** bisimulation-quotient pass *)
  lr_stats : args;  (** memo/choice deltas from [measure.layer.stats] *)
}

type summary = {
  sm_spans : int;
  sm_instants : int;
  sm_dropped : int;
  sm_total_us : float;  (** last event end − first event start *)
  sm_layers : layer_row list;  (** sorted by layer index *)
}

val summary : unit -> summary

val pp_summary : Format.formatter -> summary -> unit
(** Multi-line rendering: run totals and a per-layer table. *)
