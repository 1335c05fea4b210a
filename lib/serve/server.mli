(** The [cdse_serve] daemon: measure-as-a-service over a Unix socket.

    Accepts any number of concurrent connections, each carrying
    newline-delimited JSON requests (see {!Protocol} for the grammar).
    Cheap ops ([ping], [stats], [shutdown]) are answered inline on the
    connection's reader thread; measure-bearing ops ([measure], [reach],
    [emulate]) are enqueued onto a bounded job queue drained by a pool of
    executor threads backed by one shared {!Engine} — so every connection
    sees the same model registry and result cache.

    Replies carry the request's [id], so a client may pipeline; replies to
    {e queued} ops can overtake each other, which is what the id is for.
    Per-connection writes are serialized, so replies never interleave
    mid-line.

    Determinism: the daemon returns bit-identical results to in-process
    [Measure.exec_dist] — distributions, truncation tags and deficits —
    regardless of cache state, request interleaving or executor count.
    The protocol test suite enforces this differentially. *)

exception
  Protocol_error of { id : int option; field : string; msg : string }
(** = {!Protocol.Protocol_error}. *)

exception Overloaded of { id : int option; queue_depth : int; cap : int }
(** = {!Protocol.Overloaded}. *)

type t

val start :
  ?workers:int ->
  ?cache_cap:int ->
  ?max_queue:int ->
  socket:string ->
  unit ->
  t
(** Bind [socket] (an existing socket file is replaced), spawn the
    acceptor and [workers] executor threads (default 2), and return
    immediately. [cache_cap] (default 64) bounds the result cache; [max_queue]
    (default 64) bounds the job queue, beyond which measure-bearing
    requests are rejected with an [overloaded] error. Enables
    {!Cdse_obs.Obs} stats collection (the [stats] op reads them). *)

val stop : t -> unit
(** Graceful shutdown, also triggered by the wire [shutdown] op: stop
    admitting work, drain every queued and in-flight job (their replies
    are still delivered), then close the listening socket, close client
    connections and unlink the socket file. Idempotent. *)

val wait : t -> unit
(** Block until the server has fully shut down (via {!stop} or a wire
    [shutdown]). *)
