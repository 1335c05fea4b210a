open Cdse_prob

let escape s = String.concat "\\\"" (String.split_on_char '"' s)

let style_of sig_ act =
  match Sigs.classify act sig_ with
  | `Internal -> "dashed"
  | `Input -> "dotted"
  | `Output | `Absent -> "solid"

let to_dot ?max_states auto =
  let states = Psioa.reachable ?max_states auto in
  let buf = Buffer.create 1024 in
  let index = Hashtbl.create 64 in
  List.iteri (fun i q -> Hashtbl.replace index (Value.to_string q) i) states;
  let id q = Option.value ~default:(-1) (Hashtbl.find_opt index (Value.to_string q)) in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=LR;\n" (Psioa.name auto));
  List.iter
    (fun q ->
      let shape = if Value.equal q (Psioa.start auto) then "doublecircle" else "circle" in
      Buffer.add_string buf
        (Printf.sprintf "  s%d [shape=%s,label=\"%s\"];\n" (id q) shape
           (escape (Value.to_string q))))
    states;
  let mid = ref 0 in
  List.iter
    (fun q ->
      let sg = Psioa.signature auto q in
      Action_set.iter
        (fun act ->
          match Psioa.transition auto q act with
          | None -> ()
          | Some d ->
              let style = style_of sg act in
              (match Dist.items d with
              | [ (q', _) ] when id q' >= 0 ->
                  Buffer.add_string buf
                    (Printf.sprintf "  s%d -> s%d [label=\"%s\",style=%s];\n" (id q) (id q')
                       (escape (Action.to_string act)) style)
              | items ->
                  let m = !mid in
                  incr mid;
                  Buffer.add_string buf
                    (Printf.sprintf "  m%d [shape=point,label=\"\"];\n  s%d -> m%d [label=\"%s\",style=%s];\n"
                       m (id q) m (escape (Action.to_string act)) style);
                  List.iter
                    (fun (q', p) ->
                      if id q' >= 0 then
                        Buffer.add_string buf
                          (Printf.sprintf "  m%d -> s%d [label=\"%s\",style=%s];\n" m (id q')
                             (escape (Rat.to_string p)) style))
                    items))
        (Sigs.all sg))
    states;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_table ?max_states auto =
  let states = Psioa.reachable ?max_states auto in
  let buf = Buffer.create 1024 in
  List.iter
    (fun q ->
      Action_set.iter
        (fun act ->
          match Psioa.transition auto q act with
          | None -> ()
          | Some d ->
              List.iter
                (fun (q', p) ->
                  Buffer.add_string buf
                    (Printf.sprintf "%s  --%s-->  %s  @ %s\n" (Value.to_string q)
                       (Action.to_string act) (Value.to_string q') (Rat.to_string p)))
                (Dist.items d))
        (Psioa.enabled auto q))
    states;
  Buffer.contents buf
