type t = { name : string; payload : Value.t }

let make ?(payload = Value.Unit) name = { name; payload }
let name a = a.name
let payload a = a.payload

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c else Value.compare a.payload b.payload

let equal a b = compare a b = 0
let hash a = Hashtbl.hash (a.name, Value.hash a.payload)

let to_bits a = Value.to_bits (Value.Tag (a.name, a.payload))

let of_bits bits =
  match Value.of_bits bits with
  | Value.Tag (name, payload) -> { name; payload }
  | _ -> invalid_arg "Action.of_bits: not an action encoding"

let with_name f a = { a with name = f a.name }

let pp fmt a =
  match a.payload with
  | Value.Unit -> Format.pp_print_string fmt a.name
  | p -> Format.fprintf fmt "%s(%a)" a.name Value.pp p

let to_string a = Format.asprintf "%a" pp a
