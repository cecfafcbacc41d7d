(** Persistent deterministic worker pool over OCaml 5 domains.

    Worker domains are spawned once, live for the whole process, and block
    on a condition variable between rounds — per-call [Domain.spawn]/
    [Domain.join] churn was the dominant cost that made [jobs=2] slower
    than [jobs=1] at epoch cadence (E13).  A round hands every
    participating worker a self-contained closure and completes on a
    counted barrier whose mutex release/acquire publishes the per-task
    result slots to the caller.

    [run ~jobs tasks] evaluates every thunk in [tasks] and returns their
    results {e in task order}, regardless of which worker ran which task
    or how they interleaved.  Determinism therefore reduces to the tasks
    themselves being pure functions (the engine arranges that: each task
    draws randomness only from its own derived DRBG and owns its vertex
    caches exclusively).  If any task raises, the pool finishes the
    remaining tasks, completes the barrier, and re-raises the first
    exception (by task order).

    Cumulative per-worker utilization is published as gauges
    [engine.pool.domain.<k>.busy_us], [.idle_us] and [.tasks] after every
    round, making contention regressions visible in metric snapshots
    rather than only in wall-clock. *)

val run : jobs:int -> (unit -> 'a) array -> 'a array
(** [jobs <= 1] (or fewer than two tasks) runs inline on the calling
    domain, in order — byte-identical results by construction.  [jobs] is
    otherwise capped at the number of tasks and folded onto at most 16
    resident workers.  Work is handed out as chunks of consecutive tasks
    via one atomic counter, so workers self-balance across tasks of uneven
    cost with a fraction of the handout traffic of per-task dispatch. *)

val submit : (unit -> unit) -> unit
(** Enqueue an asynchronous work item; the first idle worker executes it.
    Items are self-contained: they must catch their own exceptions and
    signal their own completion (the serve daemon wraps session work this
    way).  There is no result plumbing and no bound here — admission
    control is the caller's job. *)

val ensure_workers : int -> unit
(** Spawn resident workers up to the given count (capped at 16).  [run]
    calls this implicitly; the serve daemon calls it once
    at startup to size the pool. *)

val worker_count : unit -> int
(** Number of resident worker domains. *)

val shutdown : unit -> unit
(** Stop and join every resident worker (idempotent; also registered via
    [at_exit]).  Subsequent calls to [run]/[submit] transparently respawn
    workers. *)

val set_perturb : (int -> unit) option -> unit
(** Test-only scheduler perturbation: [Some f] calls [f i] right before a
    pool worker executes task [i] (never on the inline path).  The
    concurrency stress battery installs seeded random sleeps here to
    prove result/digest order-independence.  [None] removes the hook. *)
