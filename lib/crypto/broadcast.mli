(** Adversarially-scheduled broadcast, indexed by the number of receivers —
    the family workload (Definitions 4.7–4.12).

    The sender broadcasts a message to [k] receivers. In the {e real}
    protocol each receiver's packet passes through the adversary, which
    observes the payload and releases receivers {e in any order}; the
    {e ideal} functionality leaks the message once and exposes the same
    per-receiver release interface. The simulator replays the leak as the
    per-receiver packets. Indexed by [k], the pair forms PSIOA families
    [(real_k)], [(ideal_k)] with [real ≤_{neg,pt} ideal] at slack exactly
    0 for every [k] — exercising {!Cdse_secure.Impl.le_neg_pt} and the
    bounded-family machinery end to end (experiment E12).

    Interfaces for instance [n] with [k] receivers over messages [0] and
    [1]:
    - environment: [n.send(m)] (EI), [n.deliver_i(m)] (EO, one per
      receiver);
    - adversary: [n.pkt_i(m)] (AO, real), [n.leak(m)] (AO, ideal),
      [n.rel_i] (AI). *)

open Cdse_psioa
open Cdse_secure

val real : k:int -> string -> Structured.t
val ideal : k:int -> string -> Structured.t

val adversary : k:int -> string -> Psioa.t
(** Scheduler-adversary: each observed packet arms that receiver's release;
    all pending releases are offered simultaneously (Definition 4.24's
    pointwise condition demands it), the scheduler resolving the order. *)

val simulator : k:int -> string -> Psioa.t
(** Matching simulator for {!ideal}: the single leak arms every release. *)

val env_all_delivered : k:int -> msg:int -> string -> Psioa.t
(** Sends [msg] and accepts once every receiver has delivered it. *)
