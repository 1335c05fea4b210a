(* The daemon under test as a child process, and a single-threaded
   client for it.

   The client speaks the newline-delimited wire protocol over the Unix
   socket the daemon binds, one request at a time, so a reply is complete
   exactly when the bytes read so far end in '\n' (compact JSON never
   contains a raw newline): the client never scans a reply, which keeps
   its own cost per byte at a memcpy. *)

module Json = Cdse_serve.Json

let daemon_exe = Filename.concat "_build" (Filename.concat "default" "bin/cdse_serve.exe")

(* Scratch files (sockets, traces) live inside the checkout, under a
   directory dune does not scan. *)
let out_dir = Filename.concat "perfbench" "_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

let now = Unix.gettimeofday

let fail fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------ children *)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let rec reap d =
  match Unix.waitpid [] d.pid with
  | _ -> live := List.filter (fun d' -> d'.pid <> d.pid) !live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap d
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      live := List.filter (fun d' -> d'.pid <> d.pid) !live

(* Whatever way the benchmark exits, no daemon outlives it, nor its socket. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap d;
          try Unix.unlink d.socket with Unix.Unix_error _ -> ())
        !live)

let spawn ~args =
  if not (Sys.file_exists daemon_exe) then
    fail "perfbench: %s is missing; build it with run.py" daemon_exe;
  ensure_out_dir ();
  let socket =
    Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  (* The daemon's banner goes to stderr: stdout carries only results. *)
  let pid =
    Unix.create_process daemon_exe
      (Array.of_list ((daemon_exe :: "--socket" :: socket :: args)))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  live := d :: !live;
  d

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> fail "perfbench: no VmHWM in %s" path
  in
  find ()

(* ---------------------------------------------------------- connections *)

type conn = { fd : Unix.file_descr; rbuf : Bytes.t; acc : Buffer.t }

(* Polls the socket every millisecond until the daemon accepts, so the
   measured start-up time is not quantised by a coarse retry sleep. *)
let connect ?(timeout = 10.0) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  let fd = go () in
  (* A daemon that stops answering fails the run instead of hanging it. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  { fd; rbuf = Bytes.create (1 lsl 20); acc = Buffer.create (1 lsl 16) }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Writes [msg], a request line with its newline. *)
let write_all c msg =
  let b = Bytes.unsafe_of_string msg in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write c.fd b off (n - off)) in
  go 0

(* One read; [true] once the reply in [acc] is complete. *)
let read_some c =
  match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail "perfbench: no reply from cdse_serve within 60 s"
  | 0 -> fail "perfbench: cdse_serve closed the connection"
  | n ->
      Buffer.add_subbytes c.acc c.rbuf 0 n;
      Bytes.get c.rbuf (n - 1) = '\n'

let take_line c =
  let line = Buffer.sub c.acc 0 (Buffer.length c.acc - 1) in
  Buffer.clear c.acc;
  line

(* One round trip: the reply line and the seconds from the send to the
   reply's last byte. *)
let timed_rpc c line =
  let msg = line ^ "\n" in
  let t0 = now () in
  write_all c msg;
  while not (read_some c) do () done;
  let latency = now () -. t0 in
  (take_line c, latency)

(* One round trip: the reply line and the CPU seconds it cost, this
   process's and the daemon [pid]'s, from the send to the reply's last
   byte. *)
let costed_rpc c ~pid line =
  let msg = line ^ "\n" in
  let cpu () = Speed.cpu 0 +. Speed.cpu pid in
  let c0 = cpu () in
  write_all c msg;
  while not (read_some c) do () done;
  let cost = cpu () -. c0 in
  (take_line c, cost)

let rpc c line = fst (timed_rpc c line)

let request_json c fields =
  Json.parse (rpc c (Json.to_string (Json.Obj (("id", Json.Num 0.0) :: fields))))

let result_of what reply =
  match (Json.member "ok" reply, Json.member "result" reply) with
  | Some (Json.Bool true), Some r -> r
  | _ -> fail "perfbench: %s failed: %s" what (Json.to_string reply)

let ping c =
  match result_of "ping" (request_json c [ ("op", Json.Str "ping") ]) with
  | Json.Str "pong" -> ()
  | j -> fail "perfbench: ping replied %s" (Json.to_string j)

let stats c = result_of "stats" (request_json c [ ("op", Json.Str "stats") ])

(* Orderly stop: the daemon drains, replies "bye" and exits; then reap it. *)
let shutdown d c =
  ignore (result_of "shutdown" (request_json c [ ("op", Json.Str "shutdown") ]));
  close c;
  reap d
