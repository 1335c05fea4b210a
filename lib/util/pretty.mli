(** Plain-text table rendering for the benchmark harness, examples and CLI.

    Deliberately minimal: fixed-width padded columns with a dashed rule, so
    experiment tables render identically in terminals, logs and the
    EXPERIMENTS.md code blocks they are pasted into. *)

val table : ?out:Format.formatter -> header:string list -> string list list -> unit
(** Render [header] and the rows with per-column padding (default
    formatter: stdout). *)

val section : string -> unit
(** A [== title ==] heading with surrounding blank lines, on stdout. *)
