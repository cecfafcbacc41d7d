(** The `pvr serve` daemon: a long-lived verification service multiplexing
    concurrent prover sessions onto the engine's fixed worker-domain pool.

    Shape: one accept loop (own systhread, interruptible via a self-pipe),
    one systhread per connection, and {!Pvr_engine.Pool} worker domains
    executing session work.  Connection threads never verify.

    Sessions belong to their connection: session ids are numbered per
    connection and looked up only in that connection's table, so a
    foreign id answers [unknown session], and closing the connection
    closes its sessions.  [serve.sessions] and [st_sessions] count open
    sessions over every connection.

    A [Run_epochs] runs on a pool worker while the connection thread
    waits; the worker writes each [Verdict] and the terminal [Done]/[Err]
    frame to the socket itself.  Backpressure is explicit and bounded:
    admission is a bounded queue (one item per worker plus [queue_cap]
    waiting items, refusals answered [Busy] immediately and counted on
    [serve.busy]); a slow reader stalls only its own worker, through the
    kernel socket buffer; and a vanished reader fails the worker's next
    write, which cancels the run, so a killed client never wedges the
    pool.  Queue depth (items beyond one per worker) is published on the
    [serve.queue.depth] gauge.  Request frames are bounded by
    {!Protocol.max_request}.

    Sessions run their engines inline ([p_jobs] forced to 1; the digest
    is byte-identical for any jobs value) — parallelism comes from
    running many sessions across the worker domains.

    State kept between requests: every run builds its world
    ({!Workload.build_world}), taking the topology and keyring from a
    {!World_cache} shared by every session and bounded by 4096 RSA keys
    (about 4.5 MB at RSA-512, 7 MB at RSA-1024), so a seed seen before skips key
    generation; the churn state and the churn and engine DRBGs are
    derived afresh per run, so every run of a session streams the batch
    digests.  Query requests read one held {!Pvr_query.Evidence_index},
    rebuilt only when the store's journal has changed since it was
    built. *)

type listen = Unix_sock of string | Tcp of string * int

type config = {
  listen : listen;
  workers : int;  (** pool worker domains executing session work *)
  queue_cap : int;  (** admitted items allowed beyond one per worker *)
  store_dir : string option;  (** evidence store served to Query requests *)
  quiet : bool;
}

val default_config : listen -> config
(** 2 workers, queue cap 8, no store, quiet. *)

(** Least-recently-used cache of the immutable part of session worlds,
    keyed by {!Workload.world_key} and bounded by the total number of keys
    it holds.  Thread-safe; key generation runs outside its mutex.  A world
    with more keys than the bound is built but never cached. *)
module World_cache : sig
  type t

  type stats = {
    hits : int;
    misses : int;
    keys : int;  (** RSA keys over the cached worlds, [<= max_keys] *)
  }

  val create : max_keys:int -> t

  val lookup : t -> Workload.cache
  (** Pass as [build_world ~cache].  A hit counts on
      [serve.world_cache.hits] and marks the world most recently used; a
      miss counts on [serve.world_cache.misses], generates, and inserts
      (evicting least recently used worlds until it fits) unless a
      concurrent miss inserted first, whose world is then returned. *)

  val mem : t -> Workload.world_key -> bool
  (** Cached now; does not count as a use. *)

  val stats : t -> stats
end

type t

val start : config -> t
(** Bind, spawn the accept loop, size the worker pool.  Also ignores
    SIGPIPE process-wide: a dead client must surface as EPIPE on write,
    never as a process-killing signal.
    @raise Unix.Unix_error when the address cannot be bound. *)

val initiate_shutdown : t -> unit
(** Begin draining: stop accepting, let in-flight streams finish.
    Async-signal-safe (a single pipe write), so SIGTERM handlers may call
    it directly. *)

val wait : t -> unit
(** Block until the drain completes: accept loop exited, every in-flight
    request finished and its terminal frame sent, every connection
    closed, listener removed.  Call after {!initiate_shutdown} (or after
    a signal handler called it). *)

val stop : t -> unit
(** [initiate_shutdown] then [wait]. *)

val stats : t -> Protocol.stats_reply
(** Point-in-time daemon statistics (same data served to [Stats]
    requests). *)
