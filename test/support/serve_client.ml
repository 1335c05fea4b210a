(* Blocking test client for the cdse_serve wire protocol: one Unix-socket
   connection, synchronous request/response helpers, and raw-line access
   for malformed-input tests. Deliberately independent of the server's
   connection code — it exercises the protocol from the outside, byte by
   byte, the way a foreign client would. *)

module Json = Cdse_serve.Json

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
      (* buffered reads of [fd]; never closed itself, so [fd] is closed
         exactly once, by [close] *)
  mutable next_id : int;
}

(* The server binds its socket before [start] returns, but tests that
   launch it on another thread (or as a child process) may race the
   filesystem; retry briefly instead of flaking. *)
let connect ?(retries = 50) path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        go (n - 1)
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  let fd = go retries in
  { fd; ic = Unix.in_channel_of_descr fd; next_id = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_line t line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write t.fd b off (n - off))
  in
  go 0

let recv_line t =
  match input_line t.ic with
  | line -> line
  | exception End_of_file -> failwith "Serve_client.recv_line: connection closed by server"

type reply = { r_id : int option; r_ok : bool; r_body : Json.t }
(** [r_body] is the ["result"] field when [r_ok], the ["error"] object
    otherwise. *)

let reply_of_line line =
  let j = Json.parse line in
  let r_id =
    match Json.member "id" j with Some v -> Json.to_int v | None -> None
  in
  match (Json.member "ok" j, Json.member "result" j, Json.member "error" j) with
  | Some (Json.Bool true), Some r, _ -> { r_id; r_ok = true; r_body = r }
  | Some (Json.Bool false), _, Some e -> { r_id; r_ok = false; r_body = e }
  | _ -> failwith ("Serve_client: malformed reply: " ^ line)

(* Send [fields] as a request object with a fresh id; block for the reply
   with that id (buffering any interleaved replies would require real
   pipelining — the blocking client simply trusts the id match, which
   holds because it never has more than one request outstanding).
   [request_line] returns the id and the raw reply line, unparsed, so a
   caller can time the round trip apart from its own parse; [reply_for]
   then parses the line and checks the id. *)
let request_line t fields =
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  send_line t
    (Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: fields)));
  (id, recv_line t)

let reply_for id line =
  let r = reply_of_line line in
  (match r.r_id with
  | Some i when i = id -> ()
  | _ -> failwith "Serve_client.request: reply id mismatch");
  r

let request t fields =
  let id, line = request_line t fields in
  reply_for id line

let ping t = request t [ ("op", Json.Str "ping") ]
let stats t = request t [ ("op", Json.Str "stats") ]
let shutdown t = request t [ ("op", Json.Str "shutdown") ]

(* Field accessors for replies *)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> failwith ("Serve_client: reply missing field " ^ name)

let str = function
  | Json.Str s -> s
  | j -> failwith ("Serve_client: expected string, got " ^ Json.to_string j)

let int j =
  match Json.to_int j with
  | Some i -> i
  | None -> failwith ("Serve_client: expected int, got " ^ Json.to_string j)
