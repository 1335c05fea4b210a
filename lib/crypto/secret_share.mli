(** 2-of-2 XOR secret sharing: real dealer vs ideal functionality.

    The dealer receives a secret, splits it into two one-time-pad shares
    [(r, s ⊕ r)], and the adversary corrupts one party, seeing that
    party's share. A single share is uniform regardless of the secret, so
    the ideal functionality (which leaks nothing but the sharing event)
    is emulated with slack exactly 0. The [transparent] variant leaks the
    secret itself as the "share" — the falsification fixture.

    Interfaces for an instance [n] over one-bit secrets:
    - environment: [n.input(s)] (EI), [n.done] (EO);
    - adversary: [n.share(v)] (AO, real), [n.leak] (AO, ideal),
      [n.ok] (AI); its report to the environment: [n.guess(v)]. *)

open Cdse_psioa
open Cdse_secure

val real : ?corrupt:[ `First | `Second ] -> string -> Structured.t
(** The dealer; [corrupt] selects which share the adversary sees
    (default [`First], i.e. the raw pad [r]). *)

val transparent : string -> Structured.t
(** Broken dealer: the leaked "share" is the secret. *)

val ideal : string -> Structured.t

val adversary : string -> Psioa.t
(** Observes the corrupted share, reports it as a guess, acknowledges. *)

val simulator : string -> Psioa.t
(** Fakes a uniform share on the ideal leak. *)

val env_guess : secret:int -> string -> Psioa.t
(** Sends the secret; accepts iff the adversary's guess equals it. *)

val dsim : g:Dummy.renaming -> string -> Psioa.t
(** Dummy-adversary simulator for the Theorem 4.30 construction: on the
    ideal leak, fakes a uniform share and republishes it on the renamed
    interface [g(share(v))]; forwards [g(ok)] into the functionality. *)
