(* What the benchmark times, and how fast the host ran while it did.

   Every time is CPU time: a process's CPU clock does not run while it
   waits for a CPU, whether other processes of the system hold it or the
   host has taken the vCPU away (steal time). Other tenants of the host
   also slow the vCPU itself, by up to 2x for seconds at a time, and that
   does show in CPU time. A fixed loop of ordinary OCaml work (hashing,
   allocation, sorting), timed on the same CPU just before and just after
   a stretch of operations, measures how fast that CPU ran then. A time
   scaled by [nominal] over the loop's time is the time at nominal speed,
   the speed at which a piece of the loop takes [nominal];
   a change to the program moves it, a change of the host's load mostly
   does not. The loop is benchmark code, so no change to the program
   under test changes it. *)

(* CPU seconds process [pid] (0 for this one) has run, all threads. *)
external cpu : int -> float = "perfbench_process_cpu"

(* The CPU seconds of one piece of the loop that every reported time is
   scaled to. Only a scale: on the host the benchmark was calibrated on (an
   Intel Xeon under KVM, 2 vCPUs), a piece took 0.37-0.87 ms depending on
   the host's load. *)
let nominal = 0.0005

let piece () =
  let h = Hashtbl.create 16 in
  for i = 0 to 2_000 do
    Hashtbl.replace h (string_of_int (i * 7919 land 0xfff)) [ i; i + 1 ]
  done;
  let l = List.init 1_000 (fun i -> i * 7919 land 0xffff) in
  ignore (Sys.opaque_identity (List.sort compare l, h))

let pieces = 21

(* CPU seconds a piece of the loop takes now: the median of [pieces]. A
   piece is short, so few are cut by a switch to another process (whose
   return finds the caches cold) or hold a minor collection, and the
   median skips those. The heap is collected before and after, so neither
   the pieces nor the operations timed next pay for the other's garbage. *)
let reference () =
  Gc.full_major ();
  let times =
    List.init pieces (fun _ ->
        let t0 = cpu 0 in
        piece ();
        cpu 0 -. t0)
  in
  Gc.full_major ();
  Stats.median times

(* [t] measured between references that took [before] and [after], at
   nominal speed. *)
let scale ~before ~after t = t *. nominal /. ((before +. after) /. 2.0)
