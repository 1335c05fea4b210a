(** Composable Dynamic Secure Emulation — public API.

    Executable semantics for the framework of Civit & Potop-Butucaru,
    {e Brief Announcement: Composable Dynamic Secure Emulation} (SPAA
    2022): dynamic probabilistic I/O automata, schedulers and insight
    functions, configuration automata with run-time creation/destruction,
    the bounded layer, structured automata, adversaries, the dummy
    adversary, and the composable secure-emulation relation.

    The layers, bottom-up:

    - {!Bits}, {!Cost}, {!Poly}: encodings and the step meter (Section 4.1);
      {!Json}: the one JSON codec (wire protocol, trace export, bench files).
    - {!Obs}: engine observability — counters, histograms, gauges.
    - {!Trace}: span tracing — per-domain timelines, Chrome-trace export.
    - {!Bignat}, {!Rat}, {!Dist}, {!Stat}, {!Rng}: exact probability.
    - {!Value}, {!Action}, {!Action_set}, {!Sigs}, {!Psioa}, {!Exec},
      {!Compose}, {!Hide}, {!Rename}, {!Registry}: PSIOA (Section 2).
    - {!Scheduler}, {!Schema}, {!Measure}, {!Insight}, {!Balance}:
      schedulers and external perception (Section 3).
    - {!Fault}: composable fault injection — crash wrappers, adversarial
      channels, fault injectors and scheduler-level fault budgets.
    - {!Config}, {!Ctrans}, {!Pca}: configuration automata (Section 2.5–6).
    - {!Encode}, {!Machines}, {!Bounded}, {!Family}, {!Negligible}:
      the bounded layer (Sections 4.1–4.5).
    - {!Impl}, {!Structured}, {!Spca}, {!Adversary}, {!Dummy},
      {!Forwarding}, {!Emulation}: implementation and secure emulation
      (Sections 4.6–4.9).
    - {!Primitives}, {!Secure_channel}, {!Coin_flip}: toy cryptographic
      protocols; {!Subchain}, {!Ledger}, {!Manager}, {!Dynamic_system}:
      the dynamic subchain workload. *)

(* util *)
module Bits = Cdse_util.Bits
module Cost = Cdse_util.Cost
module Poly = Cdse_util.Poly
module Order = Cdse_util.Order
module Pretty = Cdse_util.Pretty
module Json = Cdse_util.Json

(* obs *)
module Obs = Cdse_obs.Obs
module Trace = Cdse_obs.Trace

(* prob *)
module Bignat = Cdse_prob.Bignat
module Rat = Cdse_prob.Rat
module Dist = Cdse_prob.Dist
module Stat = Cdse_prob.Stat
module Rng = Cdse_prob.Rng
module Fprob = Cdse_prob.Fprob

(* psioa *)
module Value = Cdse_psioa.Value
module Action = Cdse_psioa.Action
module Action_set = Cdse_psioa.Action_set
module Sigs = Cdse_psioa.Sigs
module Vdist = Cdse_psioa.Vdist
module Psioa = Cdse_psioa.Psioa
module Exec = Cdse_psioa.Exec
module Compose = Cdse_psioa.Compose
module Hide = Cdse_psioa.Hide
module Rename = Cdse_psioa.Rename
module Registry = Cdse_psioa.Registry
module Bisim = Cdse_psioa.Bisim
module Dump = Cdse_psioa.Dump
module Dsl = Cdse_psioa.Dsl

(* sched *)
module Scheduler = Cdse_sched.Scheduler
module Schema = Cdse_sched.Schema
module Measure = Cdse_sched.Measure
module Par_measure = Cdse_sched.Par_measure
module Insight = Cdse_sched.Insight
module Balance = Cdse_sched.Balance
module Task = Cdse_sched.Task

(* fault *)
module Fault = Cdse_fault.Fault

(* config *)
module Config = Cdse_config.Config
module Ctrans = Cdse_config.Ctrans
module Pca = Cdse_config.Pca

(* bounded *)
module Encode = Cdse_bounded.Encode
module Machines = Cdse_bounded.Machines
module Bounded = Cdse_bounded.Bounded
module Family = Cdse_bounded.Family
module Negligible = Cdse_bounded.Negligible

(* secure *)
module Impl = Cdse_secure.Impl
module Structured = Cdse_secure.Structured
module Spca = Cdse_secure.Spca
module Adversary = Cdse_secure.Adversary
module Dummy = Cdse_secure.Dummy
module Forwarding = Cdse_secure.Forwarding
module Emulation = Cdse_secure.Emulation
module Sampled = Cdse_secure.Sampled

(* crypto *)
module Primitives = Cdse_crypto.Primitives
module Secure_channel = Cdse_crypto.Secure_channel
module Coin_flip = Cdse_crypto.Coin_flip
module Secret_share = Cdse_crypto.Secret_share
module Broadcast = Cdse_crypto.Broadcast
module Aggregation = Cdse_crypto.Aggregation

(* dynamic *)
module Subchain = Cdse_dynamic.Subchain
module Ledger = Cdse_dynamic.Ledger
module Manager = Cdse_dynamic.Manager
module Dynamic_system = Cdse_dynamic.System
module Committee = Cdse_dynamic.Committee

(* serve *)
module Serve = Cdse_serve.Server
module Serve_protocol = Cdse_serve.Protocol

(* gen *)
module Workloads = Cdse_gen.Workloads
module Sworkloads = Cdse_gen.Sworkloads
module Random_auto = Cdse_gen.Random_auto
module Monotone = Cdse_gen.Monotone
module Random_pca = Cdse_gen.Random_pca
