(** Plain-text table rendering for the benchmark harness and examples. *)

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let widths header rows =
  let cols = List.length header in
  let w = Array.make cols 0 in
  let feed row = List.iteri (fun i cell -> if i < cols then w.(i) <- max w.(i) (String.length cell)) row in
  feed header;
  List.iter feed rows;
  w

let render_row w row =
  String.concat "  " (List.mapi (fun i cell -> pad w.(i) cell) row)

let table ?(out = Format.std_formatter) ~header rows =
  let w = widths header rows in
  let rule = String.map (fun _ -> '-') (render_row w header) in
  Format.fprintf out "%s@.%s@." (render_row w header) rule;
  List.iter (fun row -> Format.fprintf out "%s@." (render_row w row)) rows;
  Format.fprintf out "@."

let section title = Format.printf "@.== %s ==@.@." title
