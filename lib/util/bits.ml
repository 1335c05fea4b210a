(* Bits are packed MSB-first into exactly [bytes_for len] bytes, and the
   padding bits after [len] in the last byte are always zero: [equal],
   [compare] and [to_string] read the packed bytes directly and rely on
   both. *)
type t = { len : int; data : Bytes.t }

let empty = { len = 0; data = Bytes.empty }
let length b = b.len

let bytes_for len = (len + 7) / 8

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Bits.get: index out of range";
  let byte = Char.code (Bytes.get b.data (i / 8)) in
  byte land (0x80 lsr (i mod 8)) <> 0

module Writer = struct
  type bits = t

  (* Every byte of [buf] from bit [len] on is zero, so a write only ever
     ors bits in, and [contents] inherits the padding invariant. *)
  type nonrec t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(capacity = 256) () =
    { buf = Bytes.make (max 8 (bytes_for capacity)) '\000'; len = 0 }

  let reserve w n =
    let need = bytes_for (w.len + n) and cap = Bytes.length w.buf in
    if need > cap then begin
      let buf = Bytes.make (max need (2 * cap)) '\000' in
      Bytes.blit w.buf 0 buf 0 (bytes_for w.len);
      w.buf <- buf
    end

  let bit w b =
    reserve w 1;
    if b then begin
      let j = w.len lsr 3 in
      Bytes.unsafe_set w.buf j
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get w.buf j) lor (0x80 lsr (w.len land 7))))
    end;
    w.len <- w.len + 1

  (* At most one partial byte, then whole bytes, then one partial byte:
     each step ors the next [k] bits of [n] into the current byte. *)
  let int ~width w n =
    if width < 0 || width > 62 then invalid_arg "Bits.Writer.int: width out of range";
    reserve w width;
    let buf = w.buf in
    let pos = ref w.len and rem = ref width in
    while !rem > 0 do
      let off = !pos land 7 in
      let k = min (8 - off) !rem in
      let chunk = (n lsr (!rem - k)) land ((1 lsl k) - 1) in
      let j = !pos lsr 3 in
      Bytes.unsafe_set buf j
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf j) lor (chunk lsl (8 - off - k))));
      pos := !pos + k;
      rem := !rem - k
    done;
    w.len <- !pos

  (* Elias-gamma on n+1 so that 0 is encodable: a unary prefix of
     (width-1) zeros, then the binary digits of n+1 (whose leading bit is
     1). The zeros are already in the buffer. *)
  let nat w n =
    if n < 0 then invalid_arg "Bits.Writer.nat: negative";
    let m = n + 1 in
    if m < 0 then invalid_arg "Bits.Writer.nat: max_int has no encoding";
    let width =
      let rec go w v = if v = 0 then w else go (w + 1) (v lsr 1) in
      go 0 m
    in
    reserve w (2 * width - 1);
    w.len <- w.len + width - 1;
    int ~width w m

  (* Source byte [k] lands across destination bytes [j0 + k] and
     [j0 + k + 1] at the writer's bit offset (the second gets nothing when
     the offset is 0). Past the source's last bit only its zero padding is
     ored in, so the invariant above holds; the extra reserved byte keeps
     that last spill in bounds. *)
  let bits w (b : bits) =
    reserve w (b.len + 8);
    let buf = w.buf and off = w.len land 7 and j0 = w.len lsr 3 in
    for k = 0 to Bytes.length b.data - 1 do
      let c = Char.code (Bytes.unsafe_get b.data k) and j = j0 + k in
      Bytes.unsafe_set buf j (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf j) lor (c lsr off)));
      Bytes.unsafe_set buf (j + 1)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get buf (j + 1)) lor ((c lsl (8 - off)) land 0xff)))
    done;
    w.len <- w.len + b.len

  let contents w : bits = { len = w.len; data = Bytes.sub w.buf 0 (bytes_for w.len) }
end

(* [len + 8]: room for the spill byte of {!Writer.bits}. *)
let build len f =
  let w = Writer.create ~capacity:(len + 8) () in
  f w;
  Writer.contents w

let of_bool_list l = build (List.length l) (fun w -> List.iter (Writer.bit w) l)

let to_bool_list b = List.init b.len (get b)
let singleton x = build 1 (fun w -> Writer.bit w x)

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else build (a.len + b.len) (fun w -> Writer.bits w a; Writer.bits w b)

let concat l =
  let len = List.fold_left (fun n b -> n + b.len) 0 l in
  build len (fun w -> List.iter (Writer.bits w) l)

let of_int ~width n =
  if width < 0 || width > 62 then invalid_arg "Bits.of_int: width out of range";
  build width (fun w -> Writer.int ~width w n)

let to_int b =
  if b.len > 62 then invalid_arg "Bits.to_int: too long";
  let rec go acc i = if i >= b.len then acc else go ((acc lsl 1) lor (if get b i then 1 else 0)) (i + 1) in
  go 0 0

let encode_nat n =
  if n < 0 then invalid_arg "Bits.encode_nat: negative";
  build 16 (fun w -> Writer.nat w n)

let of_string s =
  build (String.length s) (fun w ->
      String.iter
        (function
          | '0' -> Writer.bit w false
          | '1' -> Writer.bit w true
          | c -> invalid_arg (Printf.sprintf "Bits.of_string: bad char %C" c))
        s)

let to_string b =
  let s = Bytes.create b.len in
  for i = 0 to b.len - 1 do
    let byte = Char.code (Bytes.unsafe_get b.data (i lsr 3)) in
    Bytes.unsafe_set s i (if byte land (0x80 lsr (i land 7)) <> 0 then '1' else '0')
  done;
  Bytes.unsafe_to_string s

let equal a b = a.len = b.len && Bytes.equal a.data b.data

(* MSB-first packing with zero padding: at equal length, the unsigned
   byte order of the packed data is the lexicographic order of the
   bits. *)
let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.data b.data

let pp fmt b = Format.pp_print_string fmt (to_string b)

module Reader = struct
  type bits = t
  type nonrec t = { bits : bits; mutable p : int }

  let make bits = { bits; p = 0 }
  let at_end r = r.p >= r.bits.len

  let read_bit r =
    if at_end r then invalid_arg "Bits.Reader.read_bit: exhausted";
    let v = get r.bits r.p in
    r.p <- r.p + 1;
    v

  let read_int ~width r =
    let rec go acc i = if i = 0 then acc else go ((acc lsl 1) lor (if read_bit r then 1 else 0)) (i - 1) in
    go 0 width

  let read_nat r =
    (* The unary prefix must terminate in a 1 bit within the stream: a
       truncated stream is malformed, not a zero. *)
    let rec zeros n =
      if at_end r then invalid_arg "Bits.Reader.read_nat: truncated input"
      else if read_bit r then n
      else zeros (n + 1)
    in
    let z = zeros 0 in
    (* We already consumed the leading 1 of the binary part. *)
    let rest = read_int ~width:z r in
    ((1 lsl z) lor rest) - 1

  let read_bits n r =
    if n < 0 then invalid_arg "Bits.Reader.read_bits: negative length";
    let b = build n (fun w -> for i = r.p to r.p + n - 1 do Writer.bit w (get r.bits i) done) in
    r.p <- r.p + n;
    b
end
