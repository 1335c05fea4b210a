open Cdse_prob

(* A frontier equivalence class: same observable past (trace, and the
   optional tracked-predicate flag) and same continuation behaviour (same
   last state; all members share the layer, hence the length). *)
type key = { trace : Action.t list; state : Value.t; flag : bool }

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal k1 k2 =
    Bool.equal k1.flag k2.flag
    && Value.equal k1.state k2.state
    && List.compare Action.compare k1.trace k2.trace = 0

  (* The whole key in one pass, all the way down as {!Value.hash} goes. *)
  let hash k = Hashtbl.hash_param 256 256 k
end)

let key ~sig_of ~track e =
  let flag = match track with None -> false | Some p -> List.exists p (Exec.states e) in
  { trace = Exec.trace ~sig_of e; state = Exec.lstate e; flag }

(* Per class: the current representative (minimal member by Exec.compare),
   the representative's own original mass, and the pooled class mass. The
   split lets the caller report exactly how much mass moved onto another
   execution. *)
type cls = { mutable rep : Exec.t; mutable rep_mass : Rat.t; mutable total : Rat.t }

(* Classes are collected in first-seen order. While the input ascends, as
   the engine's frontiers do, each class's first member is its least one
   and that order is the representatives' order, so only input out of
   order (a shuffled resume) is sorted. *)
let merge_frontier ~sig_of ?track entries =
  match entries with
  | [] | [ _ ] -> (entries, 0, Rat.zero)
  | _ ->
      (* The span argument thunk is forced after the body, so it can report
         the class count through the result ref. *)
      let out = ref (entries, 0, Rat.zero) in
      Cdse_obs.Trace.span "quotient.merge"
        ~args:(fun () ->
          let classes, merged, _ = !out in
          [ ("in", string_of_int (List.length entries));
            ("classes", string_of_int (List.length classes));
            ("merged", string_of_int merged) ])
        (fun () ->
          let tbl = Ktbl.create 64 in
          let seen = ref [] and n = ref 0 in
          let ascending = ref true and prev = ref (fst (List.hd entries)) in
          List.iter
            (fun (e, p) ->
              if !ascending then ascending := Exec.compare !prev e <= 0;
              prev := e;
              let k = key ~sig_of ~track e in
              match Ktbl.find_opt tbl k with
              | None ->
                  incr n;
                  let c = { rep = e; rep_mass = p; total = p } in
                  Ktbl.add tbl k c;
                  seen := c :: !seen
              | Some c ->
                  c.total <- Rat.add c.total p;
                  if (not !ascending) && Exec.compare e c.rep < 0 then begin
                    c.rep <- e;
                    c.rep_mass <- p
                  end)
            entries;
          let merged_away = List.length entries - !n in
          if merged_away = 0 then out := (entries, 0, Rat.zero)
          else begin
            let classes = List.rev !seen in
            let classes =
              if !ascending then classes
              else List.sort (fun c1 c2 -> Exec.compare c1.rep c2.rep) classes
            in
            let merged_mass =
              List.fold_left
                (fun acc c -> Rat.add acc (Rat.sub c.total c.rep_mass))
                Rat.zero classes
            in
            out :=
              ( List.map (fun c -> (c.rep, c.total)) classes,
                merged_away, merged_mass )
          end);
      !out
