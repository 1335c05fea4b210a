(* Minimal JSON codec, used by the newline-delimited wire protocol, the
   trace exporter and the bench harness. Hand-rolled recursive-descent
   parser (the repo carries no JSON dependency). Exact quantities travel
   as strings, so the float representation of [Num] only ever carries ids
   and small counts. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg pos))

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected %c" c)
  in
  let literal w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail !pos (Printf.sprintf "expected %s" w)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail !pos "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   (* Code points are decoded to a single byte when they fit
                      (the protocol is ASCII); larger ones are rejected. *)
                   if !pos + 4 >= n then fail !pos "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail !pos "bad \\u escape"
                   in
                   if code > 0xff then fail !pos "non-ASCII \\u escape"
                   else Buffer.add_char buf (Char.chr code);
                   pos := !pos + 4
               | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num f
    | None -> fail start (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail !pos "trailing content";
  v

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Raw s -> Buffer.add_string buf s
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" f)
        else Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go v)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

(* Beyond 2^53 a float no longer denotes one integer, and past max_int
   [int_of_float] wraps. *)
let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> Some (int_of_float f)
  | _ -> None
