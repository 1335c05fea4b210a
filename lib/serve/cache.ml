open Cdse_prob
open Cdse_psioa
open Cdse_sched
module Obs = Cdse_obs.Obs

let c_hit = Obs.counter "serve.cache.hit"
let c_miss = Obs.counter "serve.cache.miss"
let c_evict = Obs.counter "serve.cache.evict"
let g_entries = Obs.gauge "serve.cache.entries"

type entry = {
  e_line : string;
  e_dist : Exec.t Dist.t;
  e_deficit : Rat.t option;
  e_frontier : Measure.frontier option;
  e_render : string option ref;
      (* Rendered dist JSON, filled by the server on first reply and
         reused on every later hit — a render walks every execution of
         the reply and still costs more than the measure for small
         models, so a warm hit must skip it. A lost race double-renders
         the identical string; last write wins, both are correct. *)
}

(* The LRU clock is a monotonic tick; eviction scans for the minimum. The
   cap is small (tens of entries — each holds a full distribution), so the
   O(n) scan is noise next to the measures the cache is saving. *)
type slot = { entry : entry; mutable tick : int }

type t = {
  tbl : (string, slot) Hashtbl.t;
  mutex : Mutex.t;
  cap : int;
  mutable clock : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Serve.Cache.create: cap must be >= 1";
  { tbl = Hashtbl.create (2 * cap); mutex = Mutex.create (); cap; clock = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some slot ->
          slot.tick <- tick t;
          Obs.incr c_hit;
          Some slot.entry
      | None ->
          Obs.incr c_miss;
          None)

let best_frontier t ~line ~depth =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ { entry = e; _ } best ->
          match e.e_frontier with
          | Some f
            when e.e_line = line
                 && f.Measure.f_depth <= depth
                 && (match best with
                    | None -> true
                    | Some b -> f.Measure.f_depth > b.Measure.f_depth) ->
              Some f
          | _ -> best)
        t.tbl None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key slot best ->
        match best with
        | Some (_, best_tick) when best_tick <= slot.tick -> best
        | _ -> Some (key, slot.tick))
      t.tbl None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.tbl key;
      Obs.incr c_evict
  | None -> ()

let add t ~key ~line ~dist ?deficit ?frontier ?(render = ref None) () =
  locked t (fun () ->
      let entry =
        {
          e_line = line;
          e_dist = dist;
          e_deficit = deficit;
          e_frontier = frontier;
          e_render = render;
        }
      in
      if not (Hashtbl.mem t.tbl key) && Hashtbl.length t.tbl >= t.cap then
        evict_lru t;
      Hashtbl.replace t.tbl key { entry; tick = tick t };
      Obs.set_gauge g_entries (string_of_int (Hashtbl.length t.tbl)))
