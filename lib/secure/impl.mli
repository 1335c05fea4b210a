(** The approximate implementation relation
    [A ≤^{Sch,f}_{p,q1,q2,ε} B] (Definition 4.12) and its family /
    neg-pt variants, with the composability and transitivity harnesses
    (Lemmas 4.13–4.14, Theorems 4.15–4.16).

    The paper quantifies over {e all} p-bounded environments and q1-bounded
    schedulers; the checker quantifies over explicit finite families
    supplied by the caller (DESIGN.md substitution table). The existential
    "there is a q2-bounded σ'" is discharged by searching the scheduler
    schema's instances for [E ‖ B] — or by an explicit matching function
    when the caller knows the construction (as the composability proofs
    do). *)

open Cdse_prob
open Cdse_psioa
open Cdse_sched

type verdict = {
  holds : bool;
  worst : Rat.t;  (** largest best-match distance encountered *)
  detail : (string * Rat.t) list;
      (** one entry per (environment, scheduler) pair: the matched
          distance *)
}

type engine = [ `Off ]
(** The one configuration every checker runs: each f-dist is the image of
    the uncompressed measure ({!Insight.apply}). The type and
    {!default_engine} stay only because [perfbench/] names them. *)

val default_engine : engine
(** [`Off]. *)

val approx_le :
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  eps:Rat.t ->
  q1:int ->
  q2:int ->
  depth:int ->
  a:Psioa.t ->
  b:Psioa.t ->
  verdict
(** [A ≤ B]: for every environment [E] and every [q1]-bounded scheduler the
    schema yields for [E ‖ A], search the [q2]-bounded schema schedulers of
    [E ‖ B] for one within sup-set distance [ε] (Definition 3.6). *)

val approx_le_with :
  matcher:(env:Psioa.t -> comp_a:Psioa.t -> comp_b:Psioa.t -> Scheduler.t -> Scheduler.t) ->
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  eps:Rat.t ->
  q1:int ->
  depth:int ->
  a:Psioa.t ->
  b:Psioa.t ->
  verdict
(** Like {!approx_le} but with an explicit σ ↦ σ' construction — the form
    used when validating the constructive proofs (Lemma D.1's
    [Forward^s]). *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Render a verdict with its per-(environment, scheduler) details,
    matched-scheduler witnesses and (on failure) distinguishing
    observations. *)

val merge_verdicts : verdict list -> verdict
(** Conjunction of verdicts: holds iff all hold; worst distance is the
    maximum; details are concatenated. *)

val approx_le_family :
  window:int list ->
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:(int -> Psioa.t list) ->
  eps:(int -> Rat.t) ->
  q1:(int -> int) ->
  q2:(int -> int) ->
  depth:(int -> int) ->
  a:(int -> Psioa.t) ->
  b:(int -> Psioa.t) ->
  verdict
(** The family relation [A̲ ≤ B̲] (Definition 4.12, second half) over a
    window of indices. *)

val le_neg_pt :
  window:int list ->
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:(int -> Psioa.t list) ->
  eps:Cdse_bounded.Negligible.t ->
  q1:Cdse_util.Poly.t ->
  q2:Cdse_util.Poly.t ->
  depth:(int -> int) ->
  a:(int -> Psioa.t) ->
  b:(int -> Psioa.t) ->
  verdict
(** [A̲ ≤^{Sch,f}_{neg,pt} B̲]: polynomial scheduler bounds and negligible
    slack, witnessed on the window. *)

(** {2 Hybrid chains}

    Pairwise distances along a chain of automata and the end-to-end
    distance, with the triangle bound [Σ εᵢ] — the quantitative backbone
    of hybrid arguments (and of Theorem 4.16's slack accounting, checked
    in experiment E4). *)

type chain_report = {
  pairwise : Rat.t list;  (** ε between consecutive automata *)
  total_bound : Rat.t;  (** Σ of the pairwise distances *)
  direct : Rat.t;  (** ε between the endpoints *)
  triangle_holds : bool;  (** [direct ≤ total_bound] *)
}

val triangle_chain :
  schema:Schema.t ->
  insight_of:(Psioa.t -> Insight.t) ->
  envs:Psioa.t list ->
  q:int ->
  depth:int ->
  Psioa.t list ->
  chain_report
