(** The `pvr serve` daemon: a long-lived verification service multiplexing
    concurrent prover sessions onto the engine's fixed worker-domain pool.

    Shape: one accept loop (own systhread, interruptible via a self-pipe),
    one systhread per connection, and {!Pvr_engine.Pool} worker domains
    executing session work.  Connection threads never verify; worker
    domains never touch sockets.

    Backpressure is explicit and bounded at both levels: admission is a
    bounded queue (one item per worker plus [queue_cap] waiting items,
    refusals answered [Busy] immediately and counted on [serve.busy]),
    and verdict streaming runs through a bounded per-session buffer — a
    slow consumer stalls only its own session's worker, and a vanished
    consumer cancels the session outright, so a killed client never
    wedges the pool.  Queue depth (items beyond one per worker) is
    published on the [serve.queue.depth] gauge.

    Sessions run their engines inline ([p_jobs] forced to 1; the digest
    is byte-identical for any jobs value) — parallelism comes from
    running many sessions across the worker domains. *)

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
