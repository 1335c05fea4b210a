(** Export explored automata as Graphviz DOT or a text transition table.

    Diagnostic tooling: render the reachable fragment of a PSIOA for
    inspection (`cdse_cli dot`), with probabilities printed exactly.
    Internal actions are dashed, outputs solid, inputs dotted. *)

val to_dot : ?max_states:int -> Psioa.t -> string
(** Graphviz digraph of the explored reachable fragment. Probabilistic
    transitions fan out from an intermediate point node labelled with the
    action. *)

val to_table : ?max_states:int -> Psioa.t -> string
(** Plain-text transition table: one line per (state, action, target,
    probability). *)
