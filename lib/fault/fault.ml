open Cdse_prob
open Cdse_psioa
open Cdse_sched
module Obs = Cdse_obs.Obs
module Trace = Cdse_obs.Trace

(* Fault transitions evaluated, by kind. A transition fires when the
   measure engine (or a simulation driver) evaluates it; under
   [Psioa.memoize] a cached transition is not re-evaluated, so these count
   distinct evaluations, not probability-weighted occurrences. *)
let c_crash = Obs.counter "fault.crash"
let c_recover = Obs.counter "fault.recover"
let c_drop = Obs.counter "fault.drop"
let c_dup = Obs.counter "fault.dup"
let c_skip = Obs.counter "fault.skip"
let c_injected = Obs.counter "fault.injected"
let c_budget_halt = Obs.counter "fault.budget.halt"
let c_compromise = Obs.counter "fault.compromise"
let c_restore = Obs.counter "fault.restore"

(* Wrapped states are tagged so fault wrappers nest and never collide with
   the wrapped automaton's own state space. *)
let live_tag = "fault-live"
let dead_tag = "fault-dead"
let evil_tag = "fault-evil"

let crash_action n = Action.make (n ^ ".crash")
let recover_action n = Action.make (n ^ ".recover")
let compromise_action n = Action.make (n ^ ".compromise")
let restore_action n = Action.make (n ^ ".restore")

(* ------------------------------------------------------------- crashes *)

(* Shared shape of crash_stop / crash_recover: live states carry the
   original signature plus the crash input; the dead state remembers the
   crash-time state [q0] and absorbs (self-loops) the inputs that were
   enabled there — the signature shrinks to inputs only, exactly the
   state-dependent shrinking Definition 2.1 permits, and input-enabledness
   towards composition partners is preserved. [revive] is the recover
   behaviour of the dead state, or [None] for crash-stop. *)
let crash_wrap ~suffix ~crash ~revive auto =
  let live q = Value.tag live_tag q in
  let dead q = Value.tag dead_tag q in
  let dead_inputs q0 = Action_set.add crash (Sigs.input (Psioa.signature auto q0)) in
  let signature q =
    match q with
    | Value.Tag (t, q0) when String.equal t live_tag ->
        let s = Psioa.signature auto q0 in
        Sigs.make
          ~input:(Action_set.add crash (Sigs.input s))
          ~output:(Sigs.output s) ~internal:(Sigs.internal s)
    | Value.Tag (t, q0) when String.equal t dead_tag ->
        let input =
          match revive with
          | None -> dead_inputs q0
          | Some (rec_act, _) -> Action_set.add rec_act (dead_inputs q0)
        in
        Sigs.make ~input ~output:Action_set.empty ~internal:Action_set.empty
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag (t, q0) when String.equal t live_tag ->
        if Action.equal a crash then begin
          Obs.incr c_crash;
          Trace.instant ~args:(fun () -> [ ("member", Psioa.name auto) ]) "fault.crash";
          Some (Vdist.dirac (dead q0))
        end
        else Option.map (Vdist.map live) (Psioa.transition auto q0 a)
    | Value.Tag (t, q0) when String.equal t dead_tag -> (
        match revive with
        | Some (rec_act, reboot) when Action.equal a rec_act ->
            Obs.incr c_recover;
            Trace.instant ~args:(fun () -> [ ("member", Psioa.name auto) ]) "fault.recover";
            Some (Vdist.dirac (live (reboot q0)))
        | _ ->
            if Action_set.mem a (dead_inputs q0) then Some (Vdist.dirac q)
            else None)
    | _ -> None
  in
  Psioa.make
    ~name:(Psioa.name auto ^ suffix)
    ~start:(live (Psioa.start auto))
    ~signature ~transition

let crash_stop ?crash auto =
  let crash = match crash with Some a -> a | None -> crash_action (Psioa.name auto) in
  crash_wrap ~suffix:"+crash" ~crash ~revive:None auto

let crash_recover ?crash ?recover ?reboot auto =
  let crash = match crash with Some a -> a | None -> crash_action (Psioa.name auto) in
  let recover = match recover with Some a -> a | None -> recover_action (Psioa.name auto) in
  let reboot = match reboot with Some f -> f | None -> fun _ -> Psioa.start auto in
  crash_wrap ~suffix:"+crash-recover" ~crash ~revive:(Some (recover, reboot)) auto

(* ---------------------------------------------------------- compromise *)

(* Dynamic compromise: a member that turns adversarial mid-run. Honest
   states delegate to [auto] and additionally accept the compromise input;
   firing it hands the {e same} underlying state to [adversarial], whose
   transition function takes over until a restore input hands it back.
   Both automata must share a state space (the adversarial behaviour is a
   reinterpretation of the member, not a different machine), so the swap
   is the identity on states and Definition 2.1's per-state signature
   discipline is preserved on both sides of the takeover.

   Signature-emptiness is preserved in both modes: a destroyed member
   (empty signature) offers neither the compromise nor the restore input,
   so configuration reduction (Definition 2.12) and the zero-compromise
   trace equivalence of the wrapper are unaffected. *)
let compromise ?compromise ?restore ~adversarial auto =
  let comp_act =
    match compromise with Some a -> a | None -> compromise_action (Psioa.name auto)
  in
  let rest_act =
    match restore with Some a -> a | None -> restore_action (Psioa.name auto)
  in
  let live q = Value.tag live_tag q in
  let evil q = Value.tag evil_tag q in
  let signature q =
    match q with
    | Value.Tag (t, q0) when String.equal t live_tag ->
        let s = Psioa.signature auto q0 in
        if Sigs.is_empty s then Sigs.empty
        else
          Sigs.make
            ~input:(Action_set.add comp_act (Sigs.input s))
            ~output:(Sigs.output s) ~internal:(Sigs.internal s)
    | Value.Tag (t, q0) when String.equal t evil_tag ->
        let s = Psioa.signature adversarial q0 in
        if Sigs.is_empty s then Sigs.empty
        else
          Sigs.make
            ~input:(Action_set.add rest_act (Sigs.input s))
            ~output:(Sigs.output s) ~internal:(Sigs.internal s)
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag (t, q0) when String.equal t live_tag ->
        if Action.equal a comp_act then
          if Sigs.is_empty (Psioa.signature auto q0) then None
          else begin
            Obs.incr c_compromise;
            Trace.instant
              ~args:(fun () -> [ ("member", Psioa.name auto) ])
              "fault.compromise";
            Some (Vdist.dirac (evil q0))
          end
        else Option.map (Vdist.map live) (Psioa.transition auto q0 a)
    | Value.Tag (t, q0) when String.equal t evil_tag ->
        if Action.equal a rest_act then
          if Sigs.is_empty (Psioa.signature adversarial q0) then None
          else begin
            Obs.incr c_restore;
            Trace.instant
              ~args:(fun () -> [ ("member", Psioa.name auto) ])
              "fault.restore";
            Some (Vdist.dirac (live q0))
          end
        else Option.map (Vdist.map evil) (Psioa.transition adversarial q0 a)
    | _ -> None
  in
  Psioa.make
    ~name:(Psioa.name auto ^ "+compromise")
    ~start:(live (Psioa.start auto))
    ~signature ~transition

let is_compromised = function
  | Value.Tag (t, q0) when String.equal t evil_tag -> Some q0
  | _ -> None

(* ------------------------------------------------------------ channels *)

let wire ~channel a = Action.with_name (fun n -> channel ^ "/" ^ n) a

(* A channel interposer is a bounded FIFO buffer over the interposed action
   set, plus one locally controlled fault action characteristic of the
   channel kind. The buffer holds indices into [acts]; states are
   [Tag ("chan", List [Int i; …])]. Inputs (the wire actions) are enabled
   in every state — a message arriving on a full buffer is absorbed, so
   the channel never blocks its sender. *)
let channel_auto ~fault_suffix ~fault_enabled ~fault_step ?(cap = 8) ~name ~acts () =
  let acts = Array.of_list acts in
  let n_acts = Array.length acts in
  if n_acts = 0 then invalid_arg (name ^ ": empty interposed action set");
  let wires = Array.map (fun a -> wire ~channel:name a) acts in
  let fault = Action.make (name ^ fault_suffix) in
  let c_fault =
    match fault_suffix with
    | ".drop" -> c_drop
    | ".dup" -> c_dup
    | ".skip" -> c_skip
    | s -> Obs.counter ("fault" ^ s)
  in
  let st buf = Value.tag "chan" (Value.list (List.map Value.int buf)) in
  let buf_of = function
    | Value.Tag ("chan", Value.List l) ->
        Some (List.filter_map (function Value.Int i -> Some i | _ -> None) l)
    | _ -> None
  in
  let wire_idx a =
    let rec go i = if i >= n_acts then None else if Action.equal wires.(i) a then Some i else go (i + 1) in
    go 0
  in
  let signature q =
    match buf_of q with
    | None -> Sigs.empty
    | Some buf ->
        let output =
          match buf with [] -> Action_set.empty | hd :: _ -> Action_set.singleton acts.(hd)
        in
        let internal =
          if fault_enabled ~cap buf then Action_set.singleton fault else Action_set.empty
        in
        Sigs.make ~input:(Action_set.of_list (Array.to_list wires)) ~output ~internal
  in
  let transition q a =
    match buf_of q with
    | None -> None
    | Some buf -> (
        match wire_idx a with
        | Some i ->
            (* Arrival: enqueue, or absorb when the buffer is full. *)
            Some (Vdist.dirac (if List.length buf < cap then st (buf @ [ i ]) else q))
        | None -> (
            match buf with
            | hd :: tl ->
                if Action.equal a acts.(hd) then Some (Vdist.dirac (st tl))
                else if Action.equal a fault && fault_enabled ~cap buf then begin
                  Obs.incr c_fault;
                  Some (Vdist.dirac (st (fault_step ~cap ~hd ~tl buf)))
                end
                else None
            | [] -> None))
  in
  Psioa.make ~name ~start:(st []) ~signature ~transition

let lossy_channel ?cap ~name ~acts () =
  channel_auto ?cap ~name ~acts ~fault_suffix:".drop"
    ~fault_enabled:(fun ~cap:_ buf -> buf <> [])
    ~fault_step:(fun ~cap:_ ~hd:_ ~tl _ -> tl)
    ()

let dup_channel ?cap ~name ~acts () =
  channel_auto ?cap ~name ~acts ~fault_suffix:".dup"
    ~fault_enabled:(fun ~cap buf -> buf <> [] && List.length buf < cap)
    ~fault_step:(fun ~cap:_ ~hd ~tl _ -> hd :: hd :: tl)
    ()

let delay_channel ?cap ~name ~acts () =
  channel_auto ?cap ~name ~acts ~fault_suffix:".skip"
    ~fault_enabled:(fun ~cap:_ buf -> List.length buf >= 2)
    ~fault_step:(fun ~cap:_ ~hd ~tl _ -> tl @ [ hd ])
    ()

let via ?name ~channel ~acts sender receiver =
  let cname = Psioa.name channel in
  let aset = Action_set.of_list acts in
  let wired = Rename.psioa sender (Rename.only aset (fun _ a -> wire ~channel:cname a)) in
  let composite = Compose.parallel ?name [ wired; channel; receiver ] in
  Hide.psioa_const composite (Action_set.map_actions (wire ~channel:cname) aset)

(* ------------------------------------------------------------ injector *)

let injector ?(name = "fault-injector") ?(each = 1) ~faults () =
  let faults = Array.of_list faults in
  let n = Array.length faults in
  let st counts = Value.tag "inj" (Value.list (List.map Value.int (Array.to_list counts))) in
  let counts_of = function
    | Value.Tag ("inj", Value.List l) ->
        Some (Array.of_list (List.filter_map (function Value.Int i -> Some i | _ -> None) l))
    | _ -> None
  in
  let signature q =
    match counts_of q with
    | Some counts when Array.length counts = n ->
        let live = ref [] in
        Array.iteri (fun i c -> if c > 0 then live := faults.(i) :: !live) counts;
        Sigs.make ~input:Action_set.empty ~output:(Action_set.of_list !live)
          ~internal:Action_set.empty
    | _ -> Sigs.empty
  in
  let transition q a =
    match counts_of q with
    | Some counts when Array.length counts = n ->
        let rec go i =
          if i >= n then None
          else if counts.(i) > 0 && Action.equal a faults.(i) then begin
            Obs.incr c_injected;
            Trace.instant
              ~args:(fun () -> [ ("fault", Action.to_string faults.(i)) ])
              "fault.injected";
            let counts' = Array.copy counts in
            counts'.(i) <- counts.(i) - 1;
            Some (Vdist.dirac (st counts'))
          end
          else go (i + 1)
        in
        go 0
    | _ -> None
  in
  Psioa.make ~name ~start:(st (Array.make n each)) ~signature ~transition

(* ------------------------------------------------------------- budgets *)

type kind = Crash | Recover | Drop | Dup | Skip | Compromise | Restore

let kind_name = function
  | Crash -> "crash"
  | Recover -> "recover"
  | Drop -> "drop"
  | Dup -> "dup"
  | Skip -> "skip"
  | Compromise -> "compromise"
  | Restore -> "restore"

(* Structural classification on the final dotted component of the action
   name. Crash/recover/compromise/restore actions carry an optional numeric
   instance index ([n.crash], [n.crash3] — the committee names its crash
   inputs that way), channel faults never do. The component must match
   exactly apart from that index: [report.crash_count] (stem
   [crash_count]), [x.recovery], [sys.compromised] and [cfg.restore_keys]
   are not faults, and neither is an undotted name like [dropout]. *)
let fault_kind a =
  let n = Action.name a in
  match String.rindex_opt n '.' with
  | None -> None
  | Some i ->
      let last = String.sub n (i + 1) (String.length n - i - 1) in
      let is_digit c = c >= '0' && c <= '9' in
      let stem_with_index stem =
        let ls = String.length stem and ll = String.length last in
        ll >= ls
        && String.equal (String.sub last 0 ls) stem
        &&
        let rec digits j = j >= ll || (is_digit last.[j] && digits (j + 1)) in
        digits ls
      in
      if stem_with_index "crash" then Some Crash
      else if stem_with_index "recover" then Some Recover
      else if stem_with_index "compromise" then Some Compromise
      else if stem_with_index "restore" then Some Restore
      else if String.equal last "drop" then Some Drop
      else if String.equal last "dup" then Some Dup
      else if String.equal last "skip" then Some Skip
      else None

let default_is_fault a = fault_kind a <> None

let is_compromise a = fault_kind a = Some Compromise

let count_faults ?(is_fault = default_is_fault) e =
  List.fold_left (fun k a -> if is_fault a then k + 1 else k) 0 (Exec.actions e)

let budget_sched ?(is_fault = default_is_fault) k sched =
  { sched with
    Scheduler.name = Printf.sprintf "fault-budget[%d] %s" k sched.Scheduler.name;
    (* The choice depends on the fault count of the whole history, not
       just (length, lstate): drop the memoryless promise. *)
    memoryless = false;
    choose =
      (fun e ->
        let d = sched.Scheduler.choose e in
        if count_faults ~is_fault e < k then d
        else
          let kept = Dist.filter (fun a -> not (is_fault a)) d in
          if Dist.size kept = Dist.size d then d
          else if Dist.size kept = 0 then begin
            (* Every enabled action is a fault: there is no non-faulty
               behaviour to condition on, so the budgeted scheduler halts
               deliberately — the empty choice has deficit 1, and the
               measure engine books the execution's whole remaining mass
               as halting mass (not as truncation deficit). *)
            Obs.incr c_budget_halt;
            Trace.instant "fault.budget.halt";
            kept
          end
          else
            (* Condition on the surviving support, preserving the original
               halting probability: mass(kept') = mass(d) exactly (the
               all-faults case above is the only one where mass drops). *)
            Dist.scale (Dist.mass d) (Dist.normalize kept)) }

let budget ?is_fault k schema =
  Schema.make
    ~name:(Printf.sprintf "fault-budget[%d] %s" k schema.Schema.name)
    (fun a -> List.map (budget_sched ?is_fault k) (Schema.instantiate schema a))

(* [budget_sched] conditions the wrapped scheduler's choice {e after} it is
   made, which is right for randomized schedulers but degenerate for
   deterministic ones: a dirac on a spent fault filters to the empty
   choice and the run halts even though non-fault actions were enabled.
   [budget_first_enabled] instead folds the budget into the pick itself —
   the least enabled action that is not a spent fault — so deterministic
   budget sweeps (experiment E18) degrade gracefully: below budget it
   coincides with [first_enabled]; at budget it behaves as first_enabled
   of the fault-free protocol. *)
let budget_first_enabled ?(is_fault = default_is_fault) ?(avoid = fun _ -> false) k auto =
  Scheduler.first_enabled_where
    ~name:(Printf.sprintf "budget-first[%d]" k)
    (fun e a ->
      (not (avoid a)) && ((not (is_fault a)) || count_faults ~is_fault e < k))
    auto

let compromise_budget ?avoid k =
  Schema.make
    ~name:(Printf.sprintf "compromise-budget[%d]" k)
    (fun a -> [ budget_first_enabled ~is_fault:is_compromise ?avoid k a ])
