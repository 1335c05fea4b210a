type t = int array (* coefficients, lowest degree first; normalized: no trailing zeros *)

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

let of_coeffs l =
  List.iter (fun c -> if c < 0 then invalid_arg "Poly.of_coeffs: negative coefficient") l;
  normalize (Array.of_list l)

let degree p = Array.length p - 1
let coeffs p = Array.to_list p

let eval p k =
  Array.fold_right (fun c acc -> (acc * k) + c) p 0

let add p q =
  let n = max (Array.length p) (Array.length q) in
  let at a i = if i < Array.length a then a.(i) else 0 in
  normalize (Array.init n (fun i -> at p i + at q i))

let mul p q =
  if Array.length p = 0 || Array.length q = 0 then [||]
  else begin
    let r = Array.make (Array.length p + Array.length q - 1) 0 in
    Array.iteri (fun i ci -> Array.iteri (fun j cj -> r.(i + j) <- r.(i + j) + (ci * cj)) q) p;
    normalize r
  end

let scale c p =
  if c < 0 then invalid_arg "Poly.scale: negative";
  normalize (Array.map (fun ci -> c * ci) p)

let compose p q =
  Array.fold_right (fun c acc -> add (of_coeffs [ c ]) (mul acc q)) p [||]

let equal p q = p = q

let pp fmt p =
  if Array.length p = 0 then Format.pp_print_string fmt "0"
  else
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c <> 0 then begin
          if not !first then Format.pp_print_string fmt " + ";
          first := false;
          match i with
          | 0 -> Format.fprintf fmt "%d" c
          | 1 -> if c = 1 then Format.fprintf fmt "k" else Format.fprintf fmt "%d·k" c
          | _ -> if c = 1 then Format.fprintf fmt "k^%d" i else Format.fprintf fmt "%d·k^%d" c i
        end)
      p;
    if !first then Format.pp_print_string fmt "0"

let dominates p f ~from ~upto =
  let rec go k = k > upto || (f k <= eval p k && go (k + 1)) in
  go from
