open Cdse_prob

type label = Ext of Action.t | Tau

let label_compare l1 l2 =
  match (l1, l2) with
  | Tau, Tau -> 0
  | Tau, Ext _ -> -1
  | Ext _, Tau -> 1
  | Ext a, Ext b -> Action.compare a b

let label s a =
  match Sigs.classify a s with
  | `Internal -> Tau
  | `Input | `Output -> Ext a
  | `Absent -> Ext a

(* A node is (side, state); both automata share the partition. *)
type node = { side : int; state : Value.t }

let node_compare n1 n2 =
  let c = Int.compare n1.side n2.side in
  if c <> 0 then c else Value.compare n1.state n2.state

module Nmap = Map.Make (struct
  type t = node

  let compare = node_compare
end)

let run ?(max_states = 2000) a b =
  let explore side auto =
    (* Stop at the cap and test the truncation flag instead of exploring
       [max_states + 1] states just to notice the overflow; the error
       names the automaton and the limit so the caller knows which side
       blew up and what to raise. *)
    let states, truncated = Psioa.reachable_trunc ~max_states auto in
    if truncated then
      invalid_arg
        (Printf.sprintf
           "Bisim: automaton %S has more than %d reachable states (max_states); raise ~max_states — a partition of a truncated state space would be unsound"
           (Psioa.name auto) max_states);
    List.map (fun q -> { side; state = q }) states
  in
  let nodes = explore 0 a @ explore 1 b in
  let auto_of n = if n.side = 0 then a else b in
  (* Per-node transition table: (label, target distribution) list. *)
  let transitions n =
    let auto = auto_of n in
    let s = Psioa.signature auto n.state in
    Action_set.fold
      (fun act acc ->
        match Psioa.transition auto n.state act with
        | None -> acc
        | Some d -> (label s act, d) :: acc)
      (Sigs.all s) []
  in
  let table = List.map (fun n -> (n, transitions n)) nodes in
  (* External interface fingerprint: the multiset of labels enabled plus
     the external signature split (inputs vs outputs must match for
     bisimilarity of I/O automata). *)
  let fingerprint n =
    let auto = auto_of n in
    let s = Psioa.signature auto n.state in
    let labels =
      List.sort label_compare (List.map fst (List.assoc n table))
    in
    let ins = List.map Action.to_string (Action_set.elements (Sigs.input s)) in
    let outs = List.map Action.to_string (Action_set.elements (Sigs.output s)) in
    (labels, ins, outs)
  in
  (* Partition as a block-id map, one block per [key] value; refine to
     fixpoint. *)
  let blocks_by key =
    let groups = Hashtbl.create 64 in
    List.iter
      (fun n ->
        let k = key n in
        let members = Option.value ~default:[] (Hashtbl.find_opt groups k) in
        Hashtbl.replace groups k (n :: members))
      nodes;
    let id = ref 0 in
    Hashtbl.fold
      (fun _ members acc ->
        let bid = !id in
        incr id;
        List.fold_left (fun acc n -> Nmap.add n bid acc) acc members)
      groups Nmap.empty
  in
  let initial = blocks_by fingerprint in
  (* Signature of a node under the current partition: for each label, the
     sorted set of block-probability vectors of its transitions. *)
  let node_signature part n =
    let sig_of_dist d =
      let weights =
        List.fold_left
          (fun acc (q', p) ->
            let bid = Nmap.find { side = n.side; state = q' } part in
            let prev = Option.value ~default:Rat.zero (List.assoc_opt bid acc) in
            (bid, Rat.add prev p) :: List.remove_assoc bid acc)
          [] (Dist.items d)
      in
      List.sort
        (fun (b1, _) (b2, _) -> Int.compare b1 b2)
        (List.map (fun (b, p) -> (b, Rat.to_string p)) weights)
    in
    let per_label =
      List.map (fun (l, d) -> (l, sig_of_dist d)) (List.assoc n table)
    in
    List.sort
      (fun (l1, v1) (l2, v2) ->
        let c = label_compare l1 l2 in
        if c <> 0 then c else compare v1 v2)
      per_label
  in
  let refine part =
    let part' = blocks_by (fun n -> (Nmap.find n part, node_signature part n)) in
    let block_count m = Nmap.fold (fun _ b acc -> max acc (b + 1)) m 0 in
    (part', block_count part' > block_count part)
  in
  let rec fixpoint part =
    let part', changed = refine part in
    if changed then fixpoint part' else part'
  in
  let final = fixpoint initial in
  (final, List.length nodes)

let bisimilar ?max_states a b =
  let part, _ = run ?max_states a b in
  Nmap.find { side = 0; state = Psioa.start a } part
  = Nmap.find { side = 1; state = Psioa.start b } part

let classes a b =
  let part, n = run a b in
  (Nmap.fold (fun _ b acc -> max acc (b + 1)) part 0, n)
