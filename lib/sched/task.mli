(** Task-structured scheduling (Canetti et al., task-PIOAs).

    Section 4.4 of the paper {e relaxes} the task-scheduler restriction of
    the original bounded task-PIOA framework; this module implements the
    original notion so that the relaxation can be exercised and compared
    (ablation A3). A {e task} is an equivalence class of actions — here,
    actions sharing a name — and a task schedule is a sequence of tasks
    fixed in advance. At each step the next task fires if it is
    {e uniquely enabled} (exactly one enabled locally-controlled action in
    the class); otherwise the task is skipped. Task schedules are
    off-line, hence oblivious and creation-oblivious in the sense of
    Section 4.4. *)

open Cdse_psioa

type task
(** An equivalence class of actions. *)

val task_of_name : string -> task
(** All actions with the given name (any payload). *)

val enabled_in : Psioa.t -> Value.t -> task -> Action.t list
(** The enabled locally-controlled actions of the class at a state. *)

type schedule = task list

val scheduler : Psioa.t -> schedule -> Scheduler.t
(** The task scheduler: deterministic, off-line. At step [i], the [i]-th
    task fires iff uniquely enabled; a non-uniquely-enabled task halts the
    run (the classic task-PIOA semantics requires the automaton to be
    "action-deterministic" per task — halting surfaces violations instead
    of hiding them). *)

val scheduler_skipping : Psioa.t -> schedule -> Scheduler.t
(** Lenient variant: tasks that are not uniquely enabled are skipped
    rather than halting (the remaining schedule shifts left). *)

val is_action_deterministic : Psioa.t -> schedule -> bool
(** Every task of the schedule is enabled at most once per reachable
    state ({!Psioa.reachable} at its default cap) — the side condition
    under which {!scheduler} and {!scheduler_skipping} agree on fired
    tasks. *)
