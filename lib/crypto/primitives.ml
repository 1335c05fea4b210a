open Cdse_psioa

let mask width = (1 lsl width) - 1

let xor_encrypt ~key ~width msg = (msg lxor key) land mask width
let xor_decrypt ~key ~width ct = xor_encrypt ~key ~width ct

let xorshift s =
  let s = s lxor (s lsl 13) land ((1 lsl 62) - 1) in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17) land ((1 lsl 62) - 1)

let prg_expand ~seed ~len =
  let rec go acc s n = if n = 0 then List.rev acc else
    let s = xorshift (s + 0x9E3779B9) in
    go ((s land 0x3FFFFFFF) :: acc) s (n - 1)
  in
  go [] (seed + 1) len

(* 30-bit FNV-style digest of a value's canonical encoding. Collisions are
   possible in principle; the protocol state spaces here are far below the
   birthday bound. *)
let toy_digest v =
  let bits = Value.to_bits v in
  let n = Cdse_util.Bits.length bits in
  let h = ref 0x811C9DC5 in
  for i = 0 to n - 1 do
    h := (!h lxor if Cdse_util.Bits.get bits i then 1 else 0) * 0x01000193 land 0x3FFFFFFF
  done;
  !h

let commit ~msg ~nonce = toy_digest (Value.pair (Value.int msg) (Value.int nonce))

let commit_verify ~commitment ~msg ~nonce = commitment = commit ~msg ~nonce
