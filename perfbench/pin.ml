(* Moves the measured processes between CPUs, one CPU at a time.

   The host's other tenants slow each of its vCPUs independently, by up to
   2x for tens of seconds at a time. A workload pinned to each allowed CPU
   in turn, stretch by stretch, meets every CPU in every run, and the
   speed reference timed around a stretch measures the CPU its operations
   ran on. Pinning the daemon and the client to the same CPU also keeps
   their ping-pong on one core. Where affinity is unavailable, the
   processes run unpinned. *)

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_thread : int -> int -> bool = "perfbench_pin_thread"

let cpus = lazy (Array.of_list (allowed_cpus ()))

(* Pins every thread of process [pid] ("self" for this one) to [cpu]. *)
let process pid cpu =
  match Sys.readdir (Printf.sprintf "/proc/%s/task" pid) with
  | tids -> Array.iter (fun t -> ignore (pin_thread (int_of_string t) cpu)) tids
  | exception Sys_error _ -> ()

(* Pins the processes [pids] to the [turn]-th allowed CPU, cyclically. *)
let turn turn pids =
  let cs = Lazy.force cpus in
  if Array.length cs > 1 then List.iter (fun p -> process p cs.(turn mod Array.length cs)) pids
