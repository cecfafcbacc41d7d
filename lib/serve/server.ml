(* The `pvr serve` daemon.

   One accept loop (its own systhread, selecting on the listen socket and
   a self-pipe so shutdown can interrupt it), one systhread per
   connection, and a fixed pool of worker domains (the engine's
   {!Pvr_engine.Pool}) executing session work.  Connection threads never
   verify anything.

   A session belongs to the connection that opened it: the connection
   thread keeps its own table of session params, so no other connection
   can run or close it, and the sessions die with the connection.  A
   [Run_epochs] hands the session's run to a pool worker and the
   connection thread blocks until the worker has finished.  The worker
   writes each epoch's verdict and the terminal [Done]/[Err] frame to the
   socket itself, so a slow reader stalls only its own worker (through the
   kernel socket buffer) and a vanished reader fails the next write, which
   cancels the run instead of wedging a worker.

   Admission control is a bounded queue: an admitted work item waits in
   the pool's async queue until a worker frees up, and when every worker
   is taken and [queue_cap] more items are waiting the request is refused
   with [Busy] immediately — a slow or bursty client sees explicit
   backpressure, never unbounded buffering.

   Every run builds its world ({!Workload.build_world}) with the topology
   and keyring from the world cache, so a second run of one session
   streams the same digests as the first.  Sessions run their engines
   inline ([p_jobs] forced to 1): parallelism comes from running many
   sessions across the worker domains, and the engine's digest is
   byte-identical for any jobs value, so a serve session and a batch
   `pvr engine --jobs N` run agree on every digest. *)

module Obs = Pvr_obs

let g_queue_depth = Obs.gauge "serve.queue.depth"
let g_sessions = Obs.gauge "serve.sessions"
let g_inflight = Obs.gauge "serve.inflight"
let c_busy = Obs.counter "serve.busy"
let c_requests = Obs.counter "serve.requests"
let c_conns = Obs.counter "serve.conns"
let c_cancelled = Obs.counter "serve.cancelled"
let c_world_hits = Obs.counter "serve.world_cache.hits"
let c_world_misses = Obs.counter "serve.world_cache.misses"
let g_world_entries = Obs.gauge "serve.world_cache.entries"
let g_world_keys = Obs.gauge "serve.world_cache.keys"

(* ---- world cache ------------------------------------------------------------ *)

(* Bound on the RSA keys the world cache holds, summed over its worlds.
   A cached world costs about 1.1 kB per key at RSA-512 and 1.7 kB per key
   at RSA-1024 (key pair, keyring entries and the AS's share of the
   topology; [Obj.reachable_words] over 3- and 7-AS worlds), so a full
   cache holds about 4.5 MB at RSA-512 and 7 MB at RSA-1024. *)
let world_cache_keys = 4096

(* The immutable part of session worlds — topology and keyring — keyed by
   the params that decide them ({!Workload.world_key}), least recently used
   evicted first.  Key generation runs outside the mutex: two workers that
   miss on one key both build it and the first insert wins, which is safe
   because the build is deterministic. *)
module World_cache = struct
  type stats = { hits : int; misses : int; keys : int }

  type entry = {
    e_world : Pvr_bgp.Topology.t * Pvr.Keyring.t;
    e_keys : int;
    mutable e_used : int; (* [clock] at the last hit or insert *)
  }

  type t = {
    max_keys : int;
    mu : Mutex.t;
    table : (Workload.world_key, entry) Hashtbl.t;
    mutable keys : int; (* sum of [e_keys] over [table] *)
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~max_keys =
    {
      max_keys;
      mu = Mutex.create ();
      table = Hashtbl.create 64;
      keys = 0;
      clock = 0;
      hits = 0;
      misses = 0;
    }

  let tick (c : t) =
    c.clock <- c.clock + 1;
    c.clock

  let find (c : t) key =
    Mutex.lock c.mu;
    let found =
      match Hashtbl.find_opt c.table key with
      | Some e ->
          e.e_used <- tick c;
          c.hits <- c.hits + 1;
          Some e.e_world
      | None ->
          c.misses <- c.misses + 1;
          None
    in
    Mutex.unlock c.mu;
    found

  (* Evict least recently used worlds until [need] more keys fit. *)
  let rec make_room (c : t) need =
    if c.keys + need > c.max_keys then begin
      let lru =
        Hashtbl.fold
          (fun k e acc ->
            match acc with
            | Some (_, old) when old.e_used <= e.e_used -> acc
            | _ -> Some (k, e))
          c.table None
      in
      Option.iter
        (fun (k, e) ->
          Hashtbl.remove c.table k;
          c.keys <- c.keys - e.e_keys;
          make_room c need)
        lru
    end

  (* Returns the resident world when a concurrent miss inserted first. *)
  let insert (c : t) key world =
    let n = List.length (Pvr.Keyring.members (snd world)) in
    Mutex.lock c.mu;
    let world =
      match Hashtbl.find_opt c.table key with
      | Some e -> e.e_world
      | None when n > c.max_keys -> world
      | None ->
          make_room c n;
          Hashtbl.replace c.table key { e_world = world; e_keys = n; e_used = tick c };
          c.keys <- c.keys + n;
          world
    in
    Obs.set_gauge g_world_entries (Hashtbl.length c.table);
    Obs.set_gauge g_world_keys c.keys;
    Mutex.unlock c.mu;
    world

  let lookup c : Workload.cache =
   fun key generate ->
    match find c key with
    | Some world ->
        Obs.incr c_world_hits;
        world
    | None ->
        Obs.incr c_world_misses;
        insert c key (generate ())

  let mem (c : t) key =
    Mutex.lock c.mu;
    let m = Hashtbl.mem c.table key in
    Mutex.unlock c.mu;
    m

  let stats (c : t) : stats =
    Mutex.lock c.mu;
    let s = { hits = c.hits; misses = c.misses; keys = c.keys } in
    Mutex.unlock c.mu;
    s
end

type listen = Unix_sock of string | Tcp of string * int

type config = {
  listen : listen;
  workers : int; (* pool worker domains executing session work *)
  queue_cap : int; (* admitted items allowed beyond one per worker *)
  store_dir : string option; (* evidence store served to Query requests *)
  quiet : bool;
}

let default_config listen =
  { listen; workers = 2; queue_cap = 8; store_dir = None; quiet = true }

exception Cancelled
(* Raised inside a worker's on_report when the session's peer is gone:
   unwinds the engine run through its own cleanup. *)

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr; (* self-pipe: signal handlers write, select reads *)
  stop_w : Unix.file_descr;
  mu : Mutex.t;
  idle_cond : Condition.t; (* fires when conn_active drops or an item finishes *)
  sessions : int Atomic.t; (* open sessions, summed over connections *)
  mutable next_conn : int;
  mutable queued : int; (* admitted items no worker has dequeued yet *)
  mutable running : int; (* items executing on a worker *)
  mutable conn_active : int; (* connection threads inside a request *)
  mutable draining : bool;
  mutable accept_exited : bool;
  mutable accept_thread : Thread.t option;
  mutable conn_threads : Thread.t list;
  mutable conn_fds : (int * Unix.file_descr) list;
  worlds : World_cache.t;
  idx_mu : Mutex.t; (* guards [idx]; held while a query (re)builds it *)
  mutable idx : ((int * int * int) * Pvr_query.Evidence_index.t) option;
      (* the held evidence index and the journal (dev, inode, size) it was
         built from *)
}

(* Admitted items beyond one per worker: the backlog [queue_cap] bounds.
   Items handed to idle workers that have not dequeued them yet are not
   backlog. *)
let backlog t =
  max 0 (t.queued + t.running - Pvr_engine.Pool.worker_count ())

let stats t =
  let w = World_cache.stats t.worlds in
  Mutex.lock t.mu;
  let s =
    {
      Protocol.st_sessions = Atomic.get t.sessions;
      st_inflight = t.queued + t.running;
      st_queue_depth = backlog t;
      st_queue_cap = t.cfg.queue_cap;
      st_workers = Pvr_engine.Pool.worker_count ();
      st_draining = t.draining;
      st_world_hits = w.hits;
      st_world_misses = w.misses;
      st_world_keys = w.keys;
      st_sha256_accelerated = Pvr_crypto.Sha256.accelerated;
    }
  in
  Mutex.unlock t.mu;
  s

let publish_queue t =
  Obs.set_gauge g_queue_depth (backlog t);
  Obs.set_gauge g_inflight (t.queued + t.running)

let add_sessions t n =
  Obs.set_gauge g_sessions (Atomic.fetch_and_add t.sessions n + n)

(* Run [work] on a pool worker and block until it has finished, or refuse
   with [Busy] at once ([None]).  The bound counts every admitted item,
   queued or running, so an item handed to an idle worker that has not
   dequeued it yet is never refused as backlog.  [work] returns [true]
   when the connection's peer is gone; an exception counts as that. *)
let run_admitted t work =
  Mutex.lock t.mu;
  if
    t.draining
    || t.queued + t.running
       >= Pvr_engine.Pool.worker_count () + t.cfg.queue_cap
  then begin
    publish_queue t;
    Mutex.unlock t.mu;
    Obs.incr c_busy;
    None
  end
  else begin
    t.queued <- t.queued + 1;
    publish_queue t;
    Mutex.unlock t.mu;
    let result = ref None in
    Pvr_engine.Pool.submit (fun () ->
        Mutex.lock t.mu;
        t.queued <- t.queued - 1;
        t.running <- t.running + 1;
        publish_queue t;
        Mutex.unlock t.mu;
        let dead = try work () with _ -> true in
        Mutex.lock t.mu;
        t.running <- t.running - 1;
        result := Some dead;
        publish_queue t;
        Condition.broadcast t.idle_cond;
        Mutex.unlock t.mu);
    Mutex.lock t.mu;
    while !result = None do
      Condition.wait t.idle_cond t.mu
    done;
    let r = !result in
    Mutex.unlock t.mu;
    r
  end

(* ---- request handling ------------------------------------------------------ *)

(* Send one frame; [true] when the peer is gone. *)
let reply fd frame =
  try
    Protocol.send_response fd frame;
    false
  with Protocol.Closed | Unix.Unix_error _ -> true

(* Run a session's epochs on a worker, writing each verdict and then the
   terminal frame to [fd].  Every run builds its world, so a second run of
   one session streams the batch digests again; the world cache makes the
   topology and keyring a hit.  A write to a vanished peer cancels the
   run.  Returns [true] when the peer is gone. *)
let session_work t fd p () =
  let h_epoch = Obs.histogram "serve.epoch" in
  match
    let world =
      Workload.build_world ~quiet:true ~cache:(World_cache.lookup t.worlds) p
    in
    let last = ref (Unix.gettimeofday ()) in
    let on_report (r : Pvr_engine.Engine.epoch_report) =
      let now = Unix.gettimeofday () in
      Obs.observe h_epoch (now -. !last);
      last := now;
      if
        reply fd
          (Protocol.Verdict
             {
               v_epoch = r.ep_epoch;
               v_changes = r.ep_changes;
               v_dirty = r.ep_dirty;
               v_detected = r.ep_detected;
               v_convicted = r.ep_convicted;
               v_digest = r.ep_digest;
             })
      then raise Cancelled
    in
    Workload.engine_core ~quiet:true ~on_report world p
  with
  | Ok (digest, convicted) ->
      reply fd (Protocol.Done { d_digest = digest; d_convicted = convicted })
  | Error e -> reply fd (Protocol.Err e)
  | exception Cancelled ->
      Obs.incr c_cancelled;
      true
  | exception e -> reply fd (Protocol.Err (Printexc.to_string e))

(* The held evidence index over [dir], rebuilt only when the journal changed
   since it was built: an epoch was appended, or a reset replaced the file.
   The journal is stat'ed before the build, so rows appended during a
   build only cause one more rebuild on the next query. *)
let current_index t dir =
  Mutex.lock t.idx_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.idx_mu) @@ fun () ->
  let stamp =
    match Unix.stat (Pvr_store.Store.journal_path ~dir) with
    | st -> Some (st.st_dev, st.st_ino, st.st_size)
    | exception Unix.Unix_error _ -> None
  in
  match (t.idx, stamp) with
  | Some (built, idx), Some now when built = now -> Ok idx
  | _ ->
      let r = Pvr_query.Evidence_index.build ~dir () in
      t.idx <-
        (match (r, stamp) with
        | Ok idx, Some now -> Some (now, idx)
        | _ -> None);
      r

let run_query t req =
  match t.cfg.store_dir with
  | None -> Protocol.Err "no evidence store attached (--store)"
  | Some dir -> (
      match req with
      | Protocol.Query { q_text; q_viewer; q_json } -> (
          match Pvr_query.Lang.parse q_text with
          | Error e ->
              Protocol.Err
                ("syntax error\n" ^ Pvr_query.Lang.render_error ~query:q_text e)
          | Ok q -> (
              match current_index t dir with
              | Error e -> Protocol.Err e
              | Ok idx ->
                  let viewer = Pvr_bgp.Asn.of_int q_viewer in
                  let res = Pvr_query.Exec.run idx ~viewer q in
                  let text =
                    if q_json then
                      Pvr_query.Exec.render_json ~query:q ~viewer res
                    else Pvr_query.Exec.render_text ~viewer res
                  in
                  Protocol.Rows (String.split_on_char '\n' text)))
      | _ -> Protocol.Err "internal: not a query")

(* Handle one request on a connection whose open sessions are [sessions]
   (id -> params; ids are numbered per connection).  Returns [true] when
   the connection must close. *)
let handle_request t ~sessions ~next_id fd req =
  Obs.incr c_requests;
  let run work =
    match run_admitted t work with
    | Some dead -> dead
    | None -> reply fd Protocol.Busy
  in
  match req with
  | Protocol.Ping -> reply fd Protocol.Ok_r
  | Protocol.Stats -> reply fd (Protocol.Stats_r (stats t))
  | Protocol.Open_session p ->
      if Mutex.lock t.mu; t.draining then begin
        Mutex.unlock t.mu;
        ignore (reply fd (Protocol.Err "draining") : bool);
        true
      end
      else begin
        Mutex.unlock t.mu;
        let id = !next_id in
        incr next_id;
        (* Sessions verify inline; the pool parallelizes across sessions.
           The digest is identical for any jobs value, so this is invisible
           to the client. *)
        Hashtbl.replace sessions id { p with Workload.p_jobs = 1 };
        add_sessions t 1;
        reply fd (Protocol.Session id)
      end
  | Protocol.Close_session id ->
      if Hashtbl.mem sessions id then begin
        Hashtbl.remove sessions id;
        add_sessions t (-1);
        reply fd Protocol.Ok_r
      end
      else reply fd (Protocol.Err "unknown session")
  | Protocol.Query _ -> reply fd (run_query t req)
  | Protocol.Stall ms ->
      run (fun () ->
          Unix.sleepf (float_of_int ms /. 1000.0);
          reply fd Protocol.Ok_r)
  | Protocol.Run_epochs id -> (
      match Hashtbl.find_opt sessions id with
      | None -> reply fd (Protocol.Err "unknown session")
      | Some p -> run (session_work t fd p))

(* ---- connection loop ------------------------------------------------------- *)

let conn_loop t ~conn fd =
  Obs.incr c_conns;
  let sessions = Hashtbl.create 4 and next_id = ref 1 in
  let rec loop () =
    match Protocol.recv_request fd with
    | exception Protocol.Closed -> ()
    | exception Unix.Unix_error _ -> ()
    | Error e ->
        (* Malformed frame: answer if the socket still lives, then close. *)
        ignore (reply fd (Protocol.Err ("malformed request: " ^ e)) : bool)
    | Ok req ->
        Mutex.lock t.mu;
        t.conn_active <- t.conn_active + 1;
        Mutex.unlock t.mu;
        let close =
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock t.mu;
              t.conn_active <- t.conn_active - 1;
              Condition.broadcast t.idle_cond;
              Mutex.unlock t.mu)
            (fun () ->
              try handle_request t ~sessions ~next_id fd req
              with Protocol.Closed | Unix.Unix_error _ -> true)
        in
        let draining =
          Mutex.lock t.mu;
          let d = t.draining in
          Mutex.unlock t.mu;
          d
        in
        if not (close || draining) then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      add_sessions t (-Hashtbl.length sessions);
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Mutex.lock t.mu;
      t.conn_fds <- List.filter (fun (c, _) -> c <> conn) t.conn_fds;
      Condition.broadcast t.idle_cond;
      Mutex.unlock t.mu)
    loop

(* ---- lifecycle ------------------------------------------------------------- *)

let bind_listener = function
  | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      let addr = (Unix.gethostbyname host).h_addr_list.(0) in
      Unix.bind fd (ADDR_INET (addr, port));
      Unix.listen fd 64;
      fd

let accept_loop t =
  let finish () =
    Mutex.lock t.mu;
    t.accept_exited <- true;
    Mutex.unlock t.mu
  in
  Fun.protect ~finally:finish @@ fun () ->
  let rec loop () =
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | readable, _, _ ->
        if List.mem t.stop_r readable then () (* drain requested *)
        else begin
          (match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              Mutex.lock t.mu;
              let conn = t.next_conn in
              t.next_conn <- conn + 1;
              t.conn_fds <- (conn, fd) :: t.conn_fds;
              let th = Thread.create (fun () -> conn_loop t ~conn fd) () in
              t.conn_threads <- th :: t.conn_threads;
              Mutex.unlock t.mu);
          loop ()
        end
  in
  loop ()

let start cfg =
  (* A dead client must surface as EPIPE on write, never as a
     process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Pvr_engine.Pool.ensure_workers cfg.workers;
  let listen_fd = bind_listener cfg.listen in
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      cfg;
      listen_fd;
      stop_r;
      stop_w;
      mu = Mutex.create ();
      idle_cond = Condition.create ();
      sessions = Atomic.make 0;
      next_conn = 1;
      queued = 0;
      running = 0;
      conn_active = 0;
      draining = false;
      accept_exited = false;
      accept_thread = None;
      conn_threads = [];
      conn_fds = [];
      worlds = World_cache.create ~max_keys:world_cache_keys;
      idx_mu = Mutex.create ();
      idx = None;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  if not cfg.quiet then
    (match cfg.listen with
    | Unix_sock p -> Printf.printf "pvr serve: listening on %s\n%!" p
    | Tcp (h, p) -> Printf.printf "pvr serve: listening on %s:%d\n%!" h p);
  t

(* Begin draining: stop accepting, let in-flight streams finish.
   Async-signal-safe (one pipe write) so SIGTERM handlers may call it. *)
let initiate_shutdown t =
  (try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1 : int)
   with Unix.Unix_error _ -> ())

(* Wait for a clean drain: accept loop gone, every in-flight request
   finished, every connection closed.  Returns when the daemon is fully
   stopped. *)
let wait t =
  (* Poll instead of joining outright: with every thread blocked in C
     (join/select/read) no thread executes OCaml code, so a pending
     SIGTERM's OCaml handler would never run.  Waking every 50 ms keeps
     the main thread pumping pending signals — the handler fires here,
     writes the self-pipe, and the accept loop exits. *)
  let accept_exited () =
    Mutex.lock t.mu;
    let d = t.accept_exited in
    Mutex.unlock t.mu;
    d
  in
  while not (accept_exited ()) do
    Unix.sleepf 0.05
  done;
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  Mutex.lock t.mu;
  t.draining <- true;
  (* In-flight requests (streams included) finish cleanly... *)
  while t.conn_active > 0 || t.queued + t.running > 0 do
    Condition.wait t.idle_cond t.mu
  done;
  (* ...then idle connections (blocked reading their next request) are
     shut down so their threads observe EOF and exit. *)
  List.iter
    (fun (_, fd) -> try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.conn_fds;
  let threads = t.conn_threads in
  t.conn_threads <- [];
  Mutex.unlock t.mu;
  List.iter Thread.join threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  (match t.cfg.listen with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ())

let stop t =
  initiate_shutdown t;
  wait t
