(* The `pvr serve` daemon.

   One accept loop (its own systhread, selecting on the listen socket and
   a self-pipe so shutdown can interrupt it), one systhread per
   connection, and a fixed pool of worker domains (the engine's
   {!Pvr_engine.Pool}) executing session work.  Connection threads never
   verify anything; worker domains never touch sockets.

   Admission control is a bounded queue: an admitted work item waits in
   the pool's async queue until a worker frees up, and when every worker
   is taken and [queue_cap] more items are waiting the request is refused
   with [Busy] immediately — a slow or bursty client sees explicit
   backpressure, never unbounded buffering.  Verdict streaming has the
   same property at per-session granularity: the worker pushes each
   epoch's verdict into a bounded buffer drained by the connection
   thread, blocks when the buffer is full (the session's own consumer is
   the only party stalled), and aborts the run outright when the
   consumer is gone — a killed client cancels its session instead of
   wedging a worker.

   Sessions run their engines inline ([p_jobs] forced to 1): parallelism
   comes from running many sessions across the worker domains, and the
   engine's digest is byte-identical for any jobs value, so a serve
   session and a batch `pvr engine --jobs N` run agree on every digest. *)

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
(* Raised inside a worker's on_report when the session's consumer is gone:
   unwinds the engine run through its own cleanup. *)

type session = {
  s_id : int;
  s_params : Workload.params;
  s_conn : int; (* owning connection: sessions die with their connection *)
  mutable s_world : Workload.world option; (* built by the first run, on a worker *)
  mutable s_running : bool;
  s_cancel : bool ref; (* set when the consumer disappears mid-stream *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  stop_r : Unix.file_descr; (* self-pipe: signal handlers write, select reads *)
  stop_w : Unix.file_descr;
  mu : Mutex.t;
  idle_cond : Condition.t; (* fires when conn_active or inflight drops *)
  sessions : (int, session) Hashtbl.t;
  mutable next_session : int;
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
      Protocol.st_sessions = Hashtbl.length t.sessions;
      st_inflight = t.queued + t.running;
      st_queue_depth = backlog t;
      st_queue_cap = t.cfg.queue_cap;
      st_workers = Pvr_engine.Pool.worker_count ();
      st_draining = t.draining;
      st_world_hits = w.hits;
      st_world_misses = w.misses;
      st_world_keys = w.keys;
    }
  in
  Mutex.unlock t.mu;
  s

let publish_queue t =
  Obs.set_gauge g_queue_depth (backlog t);
  Obs.set_gauge g_inflight (t.queued + t.running);
  Obs.set_gauge g_sessions (Hashtbl.length t.sessions)

(* Admit one work item, or refuse with [Busy].  [work] runs on a pool
   worker domain and must not raise.  The bound counts every admitted
   item, queued or running, so an item handed to an idle worker that has
   not dequeued it yet is never refused as backlog. *)
let try_submit t work =
  Mutex.lock t.mu;
  if
    t.draining
    || t.queued + t.running
       >= Pvr_engine.Pool.worker_count () + t.cfg.queue_cap
  then begin
    publish_queue t;
    Mutex.unlock t.mu;
    Obs.incr c_busy;
    false
  end
  else begin
    t.queued <- t.queued + 1;
    publish_queue t;
    Mutex.unlock t.mu;
    Pvr_engine.Pool.submit (fun () ->
        Mutex.lock t.mu;
        t.queued <- t.queued - 1;
        t.running <- t.running + 1;
        publish_queue t;
        Mutex.unlock t.mu;
        (try work () with _ -> ());
        (* Merge this worker's intern arena eagerly: async items have no
           epoch barrier to do it for them. *)
        Pvr_bgp.Intern.flush ();
        Mutex.lock t.mu;
        t.running <- t.running - 1;
        publish_queue t;
        Condition.broadcast t.idle_cond;
        Mutex.unlock t.mu);
    true
  end

(* ---- bounded verdict channel ---------------------------------------------- *)

(* Worker -> connection-thread stream for one Run_epochs.  [push] blocks
   when [cap] frames are waiting (bounded buffering); it raises
   {!Cancelled} instead once the consumer has hung up. *)
module Vchan = struct
  type 'a ch = {
    q : 'a Queue.t;
    cap : int;
    mu : Mutex.t;
    cond : Condition.t;
    cancel : bool ref;
  }

  let create ~cancel cap =
    { q = Queue.create (); cap; mu = Mutex.create (); cond = Condition.create (); cancel }

  let push ch v =
    Mutex.lock ch.mu;
    while Queue.length ch.q >= ch.cap && not !(ch.cancel) do
      Condition.wait ch.cond ch.mu
    done;
    if !(ch.cancel) then begin
      Mutex.unlock ch.mu;
      raise Cancelled
    end;
    Queue.push v ch.q;
    Condition.broadcast ch.cond;
    Mutex.unlock ch.mu

  (* Terminal frames must land even when the consumer is gone, so the
     drain loop can tell the stream is over. *)
  let push_terminal ch v =
    Mutex.lock ch.mu;
    Queue.push v ch.q;
    Condition.broadcast ch.cond;
    Mutex.unlock ch.mu

  let pop ch =
    Mutex.lock ch.mu;
    while Queue.is_empty ch.q do
      Condition.wait ch.cond ch.mu
    done;
    let v = Queue.pop ch.q in
    Condition.broadcast ch.cond;
    Mutex.unlock ch.mu;
    v

  let cancel ch =
    Mutex.lock ch.mu;
    ch.cancel := true;
    Condition.broadcast ch.cond;
    Mutex.unlock ch.mu
end

(* ---- request handling ------------------------------------------------------ *)

let verdict_cap = 128

let find_session t id =
  Mutex.lock t.mu;
  let s = Hashtbl.find_opt t.sessions id in
  Mutex.unlock t.mu;
  s

let open_session t ~conn p =
  Mutex.lock t.mu;
  let id = t.next_session in
  t.next_session <- id + 1;
  let s =
    {
      s_id = id;
      (* Sessions verify inline; the pool parallelizes across sessions.
         The digest is identical for any jobs value, so this is invisible
         to the client. *)
      s_params = { p with Workload.p_jobs = 1 };
      s_conn = conn;
      s_world = None;
      s_running = false;
      s_cancel = ref false;
    }
  in
  Hashtbl.replace t.sessions id s;
  publish_queue t;
  Mutex.unlock t.mu;
  id

let close_session t id =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.sessions id with
  | Some s ->
      s.s_cancel := true;
      Hashtbl.remove t.sessions id
  | None -> ());
  publish_queue t;
  Mutex.unlock t.mu

(* Drop every session owned by a finished connection; running ones are
   cancelled and unwind on their next verdict. *)
let close_conn_sessions t conn =
  Mutex.lock t.mu;
  let doomed =
    Hashtbl.fold (fun id s acc -> if s.s_conn = conn then (id, s) :: acc else acc)
      t.sessions []
  in
  List.iter
    (fun (id, s) ->
      s.s_cancel := true;
      Hashtbl.remove t.sessions id)
    doomed;
  publish_queue t;
  Mutex.unlock t.mu

(* Run a session's epochs on a worker, streaming verdicts through [ch]. *)
let session_work t s ch () =
  let h_epoch = Obs.histogram "serve.epoch" in
  let result =
    try
      let world =
        match s.s_world with
        | Some w -> w
        | None ->
            let w =
              Workload.build_world ~quiet:true
                ~cache:(World_cache.lookup t.worlds) s.s_params
            in
            s.s_world <- Some w;
            w
      in
      let last = ref (Unix.gettimeofday ()) in
      let on_report (r : Pvr_engine.Engine.epoch_report) =
        let now = Unix.gettimeofday () in
        Obs.observe h_epoch (now -. !last);
        last := now;
        if !(s.s_cancel) then raise Cancelled;
        Vchan.push ch
          (Protocol.Verdict
             {
               v_epoch = r.ep_epoch;
               v_changes = r.ep_changes;
               v_dirty = r.ep_dirty;
               v_detected = r.ep_detected;
               v_convicted = r.ep_convicted;
               v_digest = r.ep_digest;
             })
      in
      match Workload.engine_core ~quiet:true ~on_report world s.s_params with
      | Ok (digest, convicted) ->
          Protocol.Done { d_digest = digest; d_convicted = convicted }
      | Error e -> Protocol.Err e
    with
    | Cancelled ->
        Obs.incr c_cancelled;
        Protocol.Err "cancelled"
    | e -> Protocol.Err (Printexc.to_string e)
  in
  Vchan.push_terminal ch result

let is_terminal = function
  | Protocol.Done _ | Protocol.Err _ | Protocol.Busy | Protocol.Ok_r -> true
  | _ -> false

(* Drain the verdict channel to the socket.  A dead consumer flips the
   cancel flag (unblocking/aborting the worker) and keeps discarding
   frames until the terminal one, so the stream always unwinds. *)
let stream_to_fd fd ch =
  let dead = ref false in
  let rec loop () =
    let frame = Vchan.pop ch in
    (if not !dead then
       try Protocol.send_response fd frame
       with Protocol.Closed | Unix.Unix_error _ ->
         dead := true;
         Vchan.cancel ch);
    if is_terminal frame then !dead else loop ()
  in
  loop ()

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

(* Handle one request.  Returns [true] when the connection must close. *)
let handle_request t ~conn fd req =
  Obs.incr c_requests;
  match req with
  | Protocol.Ping ->
      Protocol.send_response fd Protocol.Ok_r;
      false
  | Protocol.Stats ->
      Protocol.send_response fd (Protocol.Stats_r (stats t));
      false
  | Protocol.Open_session p ->
      if Mutex.lock t.mu; t.draining then begin
        Mutex.unlock t.mu;
        Protocol.send_response fd (Protocol.Err "draining");
        true
      end
      else begin
        Mutex.unlock t.mu;
        let id = open_session t ~conn p in
        Protocol.send_response fd (Protocol.Session id);
        false
      end
  | Protocol.Close_session id ->
      close_session t id;
      Protocol.send_response fd Protocol.Ok_r;
      false
  | Protocol.Query _ ->
      Protocol.send_response fd (run_query t req);
      false
  | Protocol.Stall ms ->
      let ch = Vchan.create ~cancel:(ref false) 1 in
      if
        try_submit t (fun () ->
            Unix.sleepf (float_of_int ms /. 1000.0);
            Vchan.push_terminal ch Protocol.Ok_r)
      then (
        let dead = stream_to_fd fd ch in
        dead)
      else begin
        Protocol.send_response fd Protocol.Busy;
        false
      end
  | Protocol.Run_epochs id -> (
      match find_session t id with
      | None ->
          Protocol.send_response fd (Protocol.Err "unknown session");
          false
      | Some s ->
          let start =
            Mutex.lock t.mu;
            if s.s_running then begin
              Mutex.unlock t.mu;
              `Already
            end
            else begin
              s.s_running <- true;
              Mutex.unlock t.mu;
              `Go
            end
          in
          (match start with
          | `Already ->
              Protocol.send_response fd (Protocol.Err "session already running");
              false
          | `Go ->
              let ch = Vchan.create ~cancel:s.s_cancel verdict_cap in
              if try_submit t (session_work t s ch) then begin
                let dead = stream_to_fd fd ch in
                Mutex.lock t.mu;
                s.s_running <- false;
                Mutex.unlock t.mu;
                dead
              end
              else begin
                Mutex.lock t.mu;
                s.s_running <- false;
                Mutex.unlock t.mu;
                Protocol.send_response fd Protocol.Busy;
                false
              end))

(* ---- connection loop ------------------------------------------------------- *)

let conn_loop t ~conn fd =
  Obs.incr c_conns;
  let rec loop () =
    match Protocol.recv_request fd with
    | exception Protocol.Closed -> ()
    | exception Unix.Unix_error _ -> ()
    | Error e -> (
        (* Malformed frame: answer if the socket still lives, then close. *)
        try Protocol.send_response fd (Protocol.Err ("malformed request: " ^ e))
        with Protocol.Closed | Unix.Unix_error _ -> ())
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
              try handle_request t ~conn fd req
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
      close_conn_sessions t conn;
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
      sessions = Hashtbl.create 16;
      next_session = 1;
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
