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
  rbuf : Bytes.t;  (* the block reads of [request_raw] *)
  acc : Buffer.t;  (* the reply [request_raw] read *)
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
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    rbuf = Bytes.create 65536;
    acc = Buffer.create 65536;
    next_id = 0;
  }

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

let send_request t fields =
  t.next_id <- t.next_id + 1;
  send_line t
    (Json.to_string (Json.Obj (("id", Json.Num (float_of_int t.next_id)) :: fields)));
  t.next_id

let reply_for id line =
  let r = reply_of_line line in
  (match r.r_id with
  | Some i when i = id -> ()
  | _ -> failwith "Serve_client.request: reply id mismatch");
  r

(* Send [fields] as a request object with a fresh id; block for the reply
   with that id (buffering any interleaved replies would require real
   pipelining — the blocking client simply trusts the id match, which
   holds because it never has more than one request outstanding). *)
let request t fields =
  let id = send_request t fields in
  reply_for id (recv_line t)

(* [request] up to the reply's last byte, returning the id: the reply is
   read by blocks into [acc] until a read ends in '\n'. With one request
   outstanding that byte ends the reply, since compact JSON carries no raw
   newline, so the client never scans it. A caller can stop a clock there
   and build and parse the line afterwards ([take_line], [reply_for]).
   Use it only when nothing is read ahead into [ic]: every earlier reply
   was read in full, one request at a time. *)
let request_raw t fields =
  let id = send_request t fields in
  Buffer.clear t.acc;
  let rec read () =
    match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> failwith "Serve_client.request_raw: connection closed by server"
    | n ->
        Buffer.add_subbytes t.acc t.rbuf 0 n;
        if Bytes.get t.rbuf (n - 1) <> '\n' then read ()
  in
  read ();
  id

(* The reply [request_raw] read, without its newline. *)
let take_line t = Buffer.sub t.acc 0 (Buffer.length t.acc - 1)

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
