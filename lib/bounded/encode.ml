open Cdse_util
open Cdse_prob
open Cdse_psioa

let state = Value.to_bits
let action = Action.to_bits

let length_prefixed b = Bits.append (Bits.encode_nat (Bits.length b)) b

let transition q a eta =
  Bits.concat
    (length_prefixed (state q)
    :: length_prefixed (action a)
    :: Bits.encode_nat (Dist.size eta)
    :: List.concat_map
         (fun (q', p) -> [ length_prefixed (state q'); length_prefixed (Rat.to_bits p) ])
         (Dist.items eta))

let config c = Value.to_bits (Cdse_config.Config.to_value c)

let action_set s =
  Bits.concat
    (Bits.encode_nat (Action_set.cardinal s)
    :: List.map (fun a -> length_prefixed (action a)) (Action_set.elements s))

let id_list ids =
  Bits.concat
    (Bits.encode_nat (List.length ids)
    :: List.map (fun id -> length_prefixed (Value.to_bits (Value.str id))) ids)
