(** Two-party coin flipping: commit–reveal protocol vs ideal fair coin.

    The {e real} protocol: party A draws a bit [a] and a nonce, publishes a
    toy commitment (adversary action), the adversary schedules; party B
    draws a bit [b] and publishes it; A opens the commitment; the result
    [a XOR b] goes to the environment. The adversary controls all message
    timing but, being unable to open the commitment, cannot bias the
    result: it is uniform — exactly matching the {e ideal} functionality
    that tosses one fair coin.

    Interfaces for an instance [n]:
    - environment: [n.result(x)] (EO);
    - adversary: [n.commit(h)], [n.b(b)], [n.reveal(a)] (AO),
      [n.deliver1..3] (AI, real), [n.go] (AO) / [n.deliver] (AI, ideal).

    The {e cheating} variant lets B echo A's bit (as if the commitment
    were transparent), forcing result 0 — the falsification fixture. *)

open Cdse_psioa
open Cdse_secure

val real : string -> Structured.t
val real_cheating : string -> Structured.t
val ideal : string -> Structured.t

val adversary : string -> Psioa.t
(** Passive message scheduler for the real protocol: delivers every message
    as soon as it sees it. *)

val simulator : string -> Psioa.t
(** Simulator for {!ideal} against {!adversary}: fabricates a plausible
    transcript (commitment, bit, reveal) internally and delivers. *)

val env_result : string -> Psioa.t
(** Environment accepting iff the announced result is 0 — under a fair
    protocol this happens with probability exactly 1/2. *)
