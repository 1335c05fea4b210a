(* cdse_serve — measure-as-a-service daemon.

   Binds a Unix socket and serves newline-delimited JSON requests (see
   Serve's protocol grammar, or the "Serving" section of the README):

     echo '{"id":1,"op":"measure","model":{"kind":"coin"},
            "sched":{"kind":"uniform"},"depth":3}' \
       | socat - UNIX-CONNECT:/tmp/cdse.sock

   Runs until a wire "shutdown" request (or SIGINT/SIGTERM, which trigger
   the same graceful drain: queued and in-flight queries still reply). *)

open Cdse
open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/cdse.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix socket path to bind (an existing file is replaced).")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Accepted for launch scripts that still pass it; only 1 is \
           allowed. Every query runs on one domain.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Executor threads draining the job queue.")

let cache_cap_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-cap" ] ~docv:"N"
        ~doc:"Result-cache capacity (LRU eviction beyond it).")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue" ] ~docv:"N"
        ~doc:
          "Admission cap: measure-bearing requests beyond $(docv) queued \
           jobs are rejected with an \"overloaded\" error.")

let run socket domains workers cache_cap max_queue =
  if domains <> 1 then begin
    Format.eprintf "error: --domains must be 1@.";
    2
  end
  else if workers < 1 || cache_cap < 1 || max_queue < 1 then begin
    Format.eprintf "error: --workers, --cache-cap and --max-queue must be >= 1@.";
    2
  end
  else begin
    let server =
      try
        Serve.start ~workers ~cache_cap ~max_queue ~socket ()
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "error: cannot bind %s: %s@." socket
          (Unix.error_message e);
        exit 2
    in
    (* The handler may run on any of the server's own threads (whichever
       polls first), and [stop] joins them — so hand the stop to a fresh
       thread instead of risking a self-join. *)
    let graceful _ =
      ignore (Thread.create (fun () -> Serve.stop server) ())
    in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle graceful)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful)
     with Invalid_argument _ -> ());
    Format.printf "cdse_serve: listening on %s (workers=%d)@." socket workers;
    Serve.wait server;
    Format.printf "cdse_serve: shut down cleanly@.";
    0
  end

let () =
  let info =
    Cmd.info "cdse_serve" ~version:"dev"
      ~doc:
        "Measure-as-a-service daemon: exact execution measures, \
         reachability and secure-emulation checks over a Unix socket, \
         with model hash-consing, result caching and incremental \
         deepening."
  in
  exit
    (Cmd.eval'
       (Cmd.v info
          Term.(
            const run $ socket_arg $ domains_arg $ workers_arg $ cache_cap_arg
            $ max_queue_arg)))
