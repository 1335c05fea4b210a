(** Shared helpers for the experiment harness. *)

let time_it f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* Compromise-budget override for the E18 sweep: [Some k] clamps the
   sweep to that single budget (the CI smoke runs one cell), [None]
   sweeps k = 0..3. Set by --compromise. *)
let compromise : int option ref = ref None

(* Span-trace output file: [Some f] records a Trace session around the
   experiment runs and writes Chrome trace-event JSON to [f]. Set by
   --trace. *)
let trace_file : string option ref = ref None

let ms t = Printf.sprintf "%.2f" (t *. 1000.)

let verdict ok = if ok then "PASS" else "FAIL"

let failures = ref []

let record_check ~experiment ok =
  if not ok then failures := experiment :: !failures;
  ok

let summary () =
  match !failures with
  | [] -> print_endline "\nAll experiment checks passed."
  | fs ->
      Printf.printf "\nFAILED experiments: %s\n" (String.concat ", " (List.rev fs));
      exit 1
