open Cdse_psioa

let name i = Printf.sprintf "sub%d" i
let tx i v = Action.make ~payload:(Value.int v) (name i ^ ".tx")
let close i = Action.make (name i ^ ".close")
let settle i total = Action.make ~payload:(Value.pair (Value.int i) (Value.int total)) "ledger.settle"

let make ?(tx_values = [ 1; 2 ]) i =
  let open_state total = Value.tag "open" (Value.int total) in
  let closing total = Value.tag "closing" (Value.int total) in
  let dead = Value.tag "dead" Value.unit in
  let signature q =
    match q with
    | Value.Tag ("open", _) -> Sigs.of_lists ~i:(close i :: List.map (tx i) tx_values) ()
    | Value.Tag ("closing", Value.Int total) -> Sigs.of_lists ~o:[ settle i total ] ()
    | _ -> Sigs.empty
  in
  let transition q a =
    match q with
    | Value.Tag ("open", Value.Int total) ->
        if Action.equal a (close i) then Some (Vdist.dirac (closing total))
        else
          List.find_map
            (fun v -> if Action.equal a (tx i v) then Some (Vdist.dirac (open_state (total + v))) else None)
            tx_values
    | Value.Tag ("closing", Value.Int total) when Action.equal a (settle i total) ->
        Some (Vdist.dirac dead)
    | _ -> None
  in
  Psioa.make ~name:(name i) ~start:(open_state 0) ~signature ~transition
