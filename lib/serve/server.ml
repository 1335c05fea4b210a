open Cdse_prob
open Cdse_secure
module Obs = Cdse_obs.Obs

exception
  Protocol_error = Protocol.Protocol_error

exception Overloaded = Protocol.Overloaded

let c_queries = Obs.counter "serve.queries"
let c_errors = Obs.counter "serve.errors"
let g_queue = Obs.gauge "serve.queue.depth"
let h_latency = Obs.histogram "serve.latency_us"

(* Connections do raw-fd I/O (no stdlib channels): channels and fds fight
   over close ownership across threads, whereas one fd with one close is
   easy to reason about. Reads are line-buffered here; writes take the
   connection mutex so replies from different executors never interleave
   mid-line. *)
type conn = {
  fd : Unix.file_descr;
  rbuf : bytes;
  pending : Buffer.t;
  mutable scanned : int;
      (** offset into [pending] below which no newline exists — each
          incoming chunk is scanned once, so reading a long line stays
          linear instead of rescanning the whole buffer per chunk *)
  write_mutex : Mutex.t;
  chunk : Bytes.t;
      (** a reply goes to the socket through this, 64 KB at a time; used
          under [write_mutex] *)
}

(* The longest request line the daemon buffers, in bytes. Every valid
   request is far shorter; without a cap, a client that never sends '\n'
   would grow [pending] without limit. *)
let max_line = 1 lsl 20

let read_line_fd conn =
  let rec take () =
    let len = Buffer.length conn.pending in
    let rec find i =
      if i >= len then None
      else if Buffer.nth conn.pending i = '\n' then Some i
      else find (i + 1)
    in
    match find conn.scanned with
    | Some i when i > max_line -> `Too_long
    | Some i ->
        let s = Buffer.contents conn.pending in
        Buffer.clear conn.pending;
        Buffer.add_substring conn.pending s (i + 1) (String.length s - i - 1);
        conn.scanned <- 0;
        `Line (String.sub s 0 i)
    | None when len > max_line -> `Too_long
    | None -> (
        conn.scanned <- len;
        match Unix.read conn.fd conn.rbuf 0 (Bytes.length conn.rbuf) with
        | 0 -> `Eof
        | n ->
            Buffer.add_subbytes conn.pending conn.rbuf 0 n;
            take ()
        | exception Unix.Unix_error _ -> `Eof)
  in
  take ()

(* The reply's parts are copied straight into [chunk], a cached body
   ([Json.Raw]) slice by slice, and each full chunk is written out: one
   copy of the body, and the same writes as for the whole reply line cut
   into 64 KB pieces. *)
let send conn json =
  Mutex.lock conn.write_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.write_mutex)
    (fun () ->
      let chunk = conn.chunk and fill = ref 0 in
      let flush () =
        let rec write off =
          if off < !fill then write (off + Unix.write conn.fd chunk off (!fill - off))
        in
        write 0;
        fill := 0
      in
      let add s =
        let n = String.length s and off = ref 0 in
        while !off < n do
          let k = min (n - !off) (Bytes.length chunk - !fill) in
          Bytes.blit_string s !off chunk !fill k;
          fill := !fill + k;
          off := !off + k;
          if !fill = Bytes.length chunk then flush ()
        done
      in
      (* A vanished client is not a server error: drop the reply. *)
      try
        Json.iter_parts add json;
        add "\n";
        flush ()
      with Unix.Unix_error _ -> ())

type job = { j_req : Protocol.request; j_conn : conn; j_enqueued : float }

type t = {
  sock : Unix.file_descr;
  path : string;
  engine : Engine.t;
  max_queue : int;
  jobs : job Queue.t;
  m : Mutex.t;
  nonempty : Condition.t;  (** signalled on enqueue and at shutdown *)
  drained : Condition.t;  (** broadcast when queue + in-flight hit zero *)
  finished : Condition.t;  (** broadcast once fully stopped *)
  mutable inflight : int;
  mutable stopping : bool;  (** no further admissions; workers drain *)
  mutable stop_started : bool;
  mutable stopped : bool;
  mutable conns : conn list;
  mutable workers : Thread.t list;
  mutable acceptor : Thread.t option;
}

(* Replies *)

let num i = Json.Num (float_of_int i)

let ok_reply id result =
  Json.Obj [ ("id", num id); ("ok", Json.Bool true); ("result", result) ]

let error_reply ~id ~kind ~field ~msg =
  Json.Obj
    [
      ("id", (match id with Some i -> num i | None -> Json.Null));
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("kind", Json.Str kind); ("field", Json.Str field); ("msg", Json.Str msg) ] );
    ]

let stats_json t =
  Mutex.lock t.m;
  let queued = Queue.length t.jobs and inflight = t.inflight in
  Mutex.unlock t.m;
  let c = Obs.counter_value in
  let lat = Obs.hist_stats h_latency in
  Json.Obj
    [
      ("queries", num (c "serve.queries"));
      ("errors", num (c "serve.errors"));
      ( "cache",
        Json.Obj
          [
            ("hits", num (c "serve.cache.hit"));
            ("misses", num (c "serve.cache.miss"));
            ("resumes", num (c "serve.cache.resume"));
            ("evictions", num (c "serve.cache.evict"));
            ( "entries",
              num
                (match Obs.gauge_value "serve.cache.entries" with
                | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
                | None -> 0) );
          ] );
      ( "models",
        Json.Obj
          [
            ("hits", num (c "serve.model.hit"));
            ("misses", num (c "serve.model.miss"));
            ("memo_hits", num (c "psioa.memo.sig.hit" + c "psioa.memo.step.hit"));
            ("memo_misses", num (c "psioa.memo.sig.miss" + c "psioa.memo.step.miss"));
            ("memo_entries", num (Engine.memo_entries t.engine));
          ] );
      ("queued", num queued);
      ("inflight", num inflight);
      ( "latency_us",
        Json.Obj
          [
            ("count", num lat.Obs.h_count);
            ("p50", num (Obs.hist_percentile lat 0.5));
            ("p90", num (Obs.hist_percentile lat 0.9));
            ("p99", num (Obs.hist_percentile lat 0.99));
            ("max", num lat.Obs.h_max);
          ] );
    ]

(* Executors *)

let run_op t (req : Protocol.request) =
  match req.r_op with
  | Protocol.Measure q ->
      let r = Engine.measure t.engine q in
      let tag, lost =
        match r.Engine.m_deficit with
        | None -> ("exact", Rat.zero)
        | Some l -> ("truncated", l)
      in
      let dist =
        match !(r.Engine.m_render) with
        | Some s -> s
        | None ->
            let s = Codec.dist_to_string r.Engine.m_dist in
            r.Engine.m_render := Some s;
            s
      in
      Json.Obj
        [
          ("depth", num q.Protocol.q_depth);
          ("tag", Json.Str tag);
          ("lost", Json.Str (Rat.to_string lost));
          ("dist", Json.Raw dist);
          ("cached", Json.Bool r.Engine.m_cached);
          ( "resumed_from",
            match r.Engine.m_resumed_from with Some d -> num d | None -> Json.Null );
        ]
  | Protocol.Reach (q, state) ->
      let p, cached = Engine.reach t.engine q ~state in
      Json.Obj
        [ ("prob", Json.Str (Rat.to_string p)); ("cached", Json.Bool cached) ]
  | Protocol.Emulate { protocol; broken } ->
      let v = Engine.emulate ~protocol ~broken in
      Json.Obj
        [
          ("holds", Json.Bool v.Impl.holds);
          ("worst", Json.Str (Rat.to_string v.Impl.worst));
          ( "detail",
            Json.List
              (List.map
                 (fun (s, d) ->
                   Json.List [ Json.Str s; Json.Str (Rat.to_string d) ])
                 v.Impl.detail) );
        ]
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
      (* Answered inline on the reader thread, never enqueued. *)
      assert false

let worker_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.jobs then (* stopping, and nothing left to drain *)
      Mutex.unlock t.m
    else begin
      let job = Queue.pop t.jobs in
      t.inflight <- t.inflight + 1;
      Obs.set_gauge g_queue (string_of_int (Queue.length t.jobs));
      Mutex.unlock t.m;
      let reply =
        try ok_reply job.j_req.Protocol.r_id (run_op t job.j_req)
        with exn ->
          (* Engine failures (a raising scheduler, a broken model spec,
             …) poison only this request. *)
          Obs.incr c_errors;
          error_reply ~id:(Some job.j_req.Protocol.r_id) ~kind:"engine"
            ~field:"-" ~msg:(Printexc.to_string exn)
      in
      send job.j_conn reply;
      Obs.observe h_latency
        (int_of_float ((Unix.gettimeofday () -. job.j_enqueued) *. 1e6));
      Mutex.lock t.m;
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 && Queue.is_empty t.jobs then
        Condition.broadcast t.drained;
      Mutex.unlock t.m;
      loop ()
    end
  in
  loop ()

(* Admission *)

let enqueue t conn (req : Protocol.request) =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    Obs.incr c_errors;
    send conn
      (error_reply ~id:(Some req.Protocol.r_id) ~kind:"overloaded" ~field:"op"
         ~msg:"server is shutting down")
  end
  else if Queue.length t.jobs >= t.max_queue then begin
    let depth = Queue.length t.jobs in
    Mutex.unlock t.m;
    Obs.incr c_errors;
    let exn =
      Protocol.Overloaded
        { id = Some req.Protocol.r_id; queue_depth = depth; cap = t.max_queue }
    in
    send conn
      (error_reply ~id:(Some req.Protocol.r_id) ~kind:"overloaded" ~field:"op"
         ~msg:(Printexc.to_string exn))
  end
  else begin
    Queue.push
      { j_req = req; j_conn = conn; j_enqueued = Unix.gettimeofday () }
      t.jobs;
    Obs.set_gauge g_queue (string_of_int (Queue.length t.jobs));
    Condition.signal t.nonempty;
    Mutex.unlock t.m
  end

(* Shutdown machinery. [begin_stop] wins for exactly one caller; that
   caller drains (queued + in-flight jobs all reply) and then [finish]es:
   sockets closed, path unlinked, waiters released. *)

let begin_stop t =
  Mutex.lock t.m;
  let first = not t.stop_started in
  t.stop_started <- true;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  first

let drain t =
  Mutex.lock t.m;
  while not (Queue.is_empty t.jobs && t.inflight = 0) do
    Condition.wait t.drained t.m
  done;
  Mutex.unlock t.m

let finish t =
  Mutex.lock t.m;
  let conns = t.conns in
  t.conns <- [];
  t.stopped <- true;
  Condition.broadcast t.finished;
  Mutex.unlock t.m;
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  List.iter
    (fun c ->
      (* [shutdown] (not just close) reliably wakes a reader blocked in
         [Unix.read] on another thread. *)
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    conns;
  try Unix.unlink t.path with Unix.Unix_error _ -> ()

let handle_shutdown t conn id =
  if begin_stop t then begin
    drain t;
    send conn (ok_reply id (Json.Str "bye"));
    finish t
  end
  else
    (* A concurrent shutdown already owns the drain; just acknowledge. *)
    send conn (ok_reply id (Json.Str "bye"))

(* Readers *)

let close_conn t conn =
  Mutex.lock t.m;
  let mine = List.memq conn t.conns in
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.m;
  if mine then (
    try Unix.close conn.fd with Unix.Unix_error _ -> ())

let reader_loop t conn =
  let rec loop () =
    match read_line_fd conn with
    | `Eof -> close_conn t conn
    | `Too_long ->
        (* The rest of the line cannot be told apart from the next
           request, so the connection ends here. *)
        Obs.incr c_errors;
        send conn
          (error_reply ~id:None ~kind:"protocol" ~field:"request"
             ~msg:(Printf.sprintf "request line exceeds %d bytes" max_line));
        close_conn t conn
    | `Line line when String.trim line = "" -> loop ()
    | `Line line ->
        (match Protocol.parse_request line with
        | exception Protocol.Protocol_error { id; field; msg } ->
            Obs.incr c_errors;
            send conn (error_reply ~id ~kind:"protocol" ~field ~msg)
        | req -> (
            Obs.incr c_queries;
            match req.Protocol.r_op with
            | Protocol.Ping -> send conn (ok_reply req.Protocol.r_id (Json.Str "pong"))
            | Protocol.Stats -> send conn (ok_reply req.Protocol.r_id (stats_json t))
            | Protocol.Shutdown -> handle_shutdown t conn req.Protocol.r_id
            | Protocol.Measure _ | Protocol.Reach _ | Protocol.Emulate _ ->
                enqueue t conn req));
        loop ()
  in
  try loop () with _ -> close_conn t conn

(* Acceptor: a select loop with a short tick, so shutdown never races a
   blocking [accept] (closing a listening socket under an accept blocked
   in another thread is not portable). *)

let acceptor_loop t =
  let stopping () =
    Mutex.lock t.m;
    let s = t.stopping in
    Mutex.unlock t.m;
    s
  in
  let rec loop () =
    if not (stopping ()) then
      match Unix.select [ t.sock ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept t.sock with
          | exception Unix.Unix_error _ -> loop ()
          | fd, _ ->
              let conn =
                {
                  fd;
                  rbuf = Bytes.create 4096;
                  pending = Buffer.create 256;
                  scanned = 0;
                  write_mutex = Mutex.create ();
                  chunk = Bytes.create 65536;
                }
              in
              Mutex.lock t.m;
              if t.stopping then begin
                Mutex.unlock t.m;
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                t.conns <- conn :: t.conns;
                Mutex.unlock t.m;
                ignore (Thread.create (fun () -> reader_loop t conn) ())
              end;
              loop ())
  in
  try loop () with Unix.Unix_error _ -> ()

(* Lifecycle *)

let start ?(workers = 2) ?(cache_cap = 64) ?(max_queue = 64) ~socket () =
  Obs.set_enabled true;
  (* A client vanishing mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind sock (Unix.ADDR_UNIX socket)
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock 16;
  let t =
    {
      sock;
      path = socket;
      engine = Engine.create ~cache_cap ();
      max_queue;
      jobs = Queue.create ();
      m = Mutex.create ();
      nonempty = Condition.create ();
      drained = Condition.create ();
      finished = Condition.create ();
      inflight = 0;
      stopping = false;
      stop_started = false;
      stopped = false;
      conns = [];
      workers = [];
      acceptor = None;
    }
  in
  t.workers <- List.init (max 1 workers) (fun _ -> Thread.create worker_loop t);
  t.acceptor <- Some (Thread.create acceptor_loop t);
  t

let wait t =
  Mutex.lock t.m;
  while not t.stopped do
    Condition.wait t.finished t.m
  done;
  Mutex.unlock t.m;
  (match t.acceptor with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  List.iter (fun th -> try Thread.join th with _ -> ()) t.workers

let stop t =
  if begin_stop t then begin
    drain t;
    finish t
  end;
  wait t
