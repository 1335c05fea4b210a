open Cdse_psioa
open Cdse_config

let act = Workloads.act

let beep = act "kid.beep"
let work = act "kid.work"
let spawn = act "par.spawn"

let a0 = Value.tag "kid-a0" Value.unit
let a1 = Value.tag "kid-a1" Value.unit
let b0 = Value.tag "kid-b0" Value.unit
let dead = Value.tag "kid-dead" Value.unit

let child_slow =
  Psioa.make ~name:"kid" ~start:a0
    ~signature:(fun q ->
      if Value.equal q a0 then Sigs.of_lists ~h:[ work ] ()
      else if Value.equal q a1 then Sigs.of_lists ~o:[ beep ] ()
      else Sigs.empty)
    ~transition:(fun q a ->
      if Value.equal q a0 && Action.equal a work then Some (Vdist.dirac a1)
      else if Value.equal q a1 && Action.equal a beep then Some (Vdist.dirac dead)
      else None)

let child_fast =
  Psioa.make ~name:"kid" ~start:b0
    ~signature:(fun q -> if Value.equal q b0 then Sigs.of_lists ~o:[ beep ] () else Sigs.empty)
    ~transition:(fun q a ->
      if Value.equal q b0 && Action.equal a beep then Some (Vdist.dirac dead) else None)

let parent =
  let p0 = Value.tag "par0" Value.unit in
  let p1 = Value.tag "par1" Value.unit in
  Psioa.make ~name:"par" ~start:p0
    ~signature:(fun q ->
      if Value.equal q p0 then Sigs.of_lists ~o:[ spawn ] () else Sigs.of_lists ())
    ~transition:(fun q a ->
      if Value.equal q p0 && Action.equal a spawn then Some (Vdist.dirac p1) else None)

let pca_with child =
  let registry = Registry.of_list [ parent; child ] in
  Pca.make ~name:"ctx" ~registry
    ~init:(Config.start_of registry [ "par" ])
    ~created:(fun _ a -> if Action.equal a spawn then [ "kid" ] else [])
    ()

let env = Workloads.acceptor ~watch:[ ("kid.beep", None) ] "env"

let script_slow = [ spawn; work; beep; act "acc" ]
let script_fast = [ spawn; beep; act "acc" ]

(* The composite is env ‖ psioa(X); the PCA state is the right component
   and encodes its configuration. Halt iff child A sits in its pre-work
   state — information only a creation-sensitive scheduler can use. *)
let sees_slow_child q =
  match q with
  | Value.Pair (_, pca_state) -> (
      match Config.of_value pca_state with
      | config -> (
          match Config.state_of config "kid" with
          | Some s -> Value.equal s a0
          | None -> false)
      | exception Invalid_argument _ -> false)
  | _ -> false

let creation_sensitive composite =
  let first = Cdse_sched.Scheduler.first_enabled composite in
  Cdse_sched.Scheduler.make ~name:"creation-sensitive" (fun e ->
      if sees_slow_child (Exec.lstate e) then
        Cdse_prob.Dist.empty ~compare:Action.compare
      else first.Cdse_sched.Scheduler.choose e)
