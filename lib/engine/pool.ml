(* Persistent deterministic worker pool over OCaml 5 domains.

   Earlier revisions spawned [jobs] fresh domains per call and joined them
   at the end; at engine epoch cadence the spawn/join overhead plus the
   stop-the-world cost of domain startup dominated the work and made
   [jobs=2] slower than [jobs=1] (E13).  The pool now keeps a single
   process-wide set of long-lived worker domains that block on a condition
   variable between rounds.  A round hands each participating worker a
   self-contained closure; completion is a counted barrier under the pool
   mutex, whose release/acquire pair is the happens-before edge that
   publishes the per-task result slots to the caller (the role
   [Domain.join] used to play).

   Determinism is unchanged: results land in per-task slots and are
   returned in task order no matter which worker ran what or how rounds
   interleave.  Work is handed out as *chunks* of consecutive tasks
   (coarser work units — one atomic fetch per chunk instead of per
   task). *)

type 'a slot = Pending | Done of 'a | Failed of exn

let run_inline tasks = Array.map (fun f -> f ()) tasks

(* Upper bound on resident worker domains.  [run ~jobs] with a larger
   [jobs] still executes every task — extra parallelism is folded onto the
   existing workers, which drain chunks until none are left. *)
let max_workers = 16

(* Test-only scheduler perturbation: called with the task index right
   before a pool worker executes that task.  The stress battery installs a
   seeded random sleep here to prove digests are order-independent. *)
let perturb_hook : (int -> unit) ref = ref (fun _ -> ())

let set_perturb = function
  | Some f -> perturb_hook := f
  | None -> perturb_hook := fun _ -> ()

type state = {
  mutable pid : int;
      (* pool identity: a fork inherits this record but not the worker
         domains, so a pid mismatch means "rebuild from scratch" (the
         crashsoak harness forks children that run engines). *)
  mutable mu : Mutex.t;
  mutable work_cond : Condition.t; (* workers: mailbox or queue non-empty *)
  mutable done_cond : Condition.t; (* callers: a round/async item finished *)
  mutable mailbox : (unit -> unit) option array; (* per-worker round share *)
  mutable domains : unit Domain.t option array;
  mutable stop : bool;
  async_q : (unit -> unit) Queue.t; (* serve-style fire-and-signal items *)
  busy_s : float array; (* cumulative busy seconds per worker *)
  idle_s : float array; (* cumulative (round wall - busy) per worker *)
  tasks_n : int array; (* cumulative tasks executed per worker *)
}

let st =
  {
    pid = -1;
    mu = Mutex.create ();
    work_cond = Condition.create ();
    done_cond = Condition.create ();
    mailbox = Array.make max_workers None;
    domains = Array.make max_workers None;
    stop = false;
    async_q = Queue.create ();
    busy_s = Array.make max_workers 0.0;
    idle_s = Array.make max_workers 0.0;
    tasks_n = Array.make max_workers 0;
  }

let worker_loop w () =
  let rec loop () =
    Mutex.lock st.mu;
    let job =
      let rec await () =
        if st.stop then None
        else
          match st.mailbox.(w) with
          | Some j ->
              st.mailbox.(w) <- None;
              Some j
          | None ->
              if not (Queue.is_empty st.async_q) then Some (Queue.pop st.async_q)
              else begin
                Condition.wait st.work_cond st.mu;
                await ()
              end
      in
      await ()
    in
    Mutex.unlock st.mu;
    match job with
    | None -> () (* stop requested: worker retires *)
    | Some j ->
        (* Jobs are self-contained: they catch task exceptions into slots
           and signal their own completion.  A raise escaping here would
           kill the worker silently, so swallow defensively. *)
        (try j () with _ -> ());
        loop ()
  in
  loop ()

(* Re-arm after fork: the child inherits the state record but none of the
   worker domains, and pthread condvars with dead waiters are poison. *)
let reinit_after_fork () =
  st.mu <- Mutex.create ();
  st.work_cond <- Condition.create ();
  st.done_cond <- Condition.create ();
  st.mailbox <- Array.make max_workers None;
  st.domains <- Array.make max_workers None;
  st.stop <- false;
  Queue.clear st.async_q;
  Array.fill st.busy_s 0 max_workers 0.0;
  Array.fill st.idle_s 0 max_workers 0.0;
  Array.fill st.tasks_n 0 max_workers 0

let shutdown () =
  Mutex.lock st.mu;
  st.stop <- true;
  Condition.broadcast st.work_cond;
  Mutex.unlock st.mu;
  Array.iteri
    (fun i d ->
      match d with
      | Some d ->
          Domain.join d;
          st.domains.(i) <- None
      | None -> ())
    st.domains;
  st.stop <- false

(* Spawn workers 0..w-1 if missing.  Registers a process-exit hook once so
   idle workers are joined instead of being abandoned mid-wait. *)
let at_exit_registered = ref false

let ensure_workers w =
  (* The fork check runs unlocked: a freshly forked child is
     single-threaded, and in the parent [st.pid] never changes. *)
  let pid = Unix.getpid () in
  if st.pid <> pid then begin
    reinit_after_fork ();
    st.pid <- pid;
    at_exit_registered := false
  end;
  Mutex.lock st.mu;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit (fun () -> if st.pid = Unix.getpid () then shutdown ())
  end;
  for i = 0 to min w max_workers - 1 do
    if st.domains.(i) = None then
      st.domains.(i) <- Some (Domain.spawn (worker_loop i))
  done;
  Mutex.unlock st.mu

let worker_count () =
  Array.fold_left (fun n d -> if d = None then n else n + 1) 0 st.domains

(* ---- per-domain utilization gauges --------------------------------------- *)

(* engine.pool.domain.<w>.{busy_us,idle_us,tasks}: cumulative per-worker
   utilization so contention regressions show up in BENCH_pvr.json, not
   just wall-clock.  Gauge handles are cached per worker slot. *)
let util_gauges : (Pvr_obs.gauge * Pvr_obs.gauge * Pvr_obs.gauge) option array =
  Array.make max_workers None

let publish_utilization w =
  for k = 0 to w - 1 do
    let b, i, t =
      match util_gauges.(k) with
      | Some g -> g
      | None ->
          let p = Printf.sprintf "engine.pool.domain.%d" k in
          let g =
            ( Pvr_obs.gauge (p ^ ".busy_us"),
              Pvr_obs.gauge (p ^ ".idle_us"),
              Pvr_obs.gauge (p ^ ".tasks") )
          in
          util_gauges.(k) <- Some g;
          g
    in
    Pvr_obs.set_gauge b (int_of_float (st.busy_s.(k) *. 1e6));
    Pvr_obs.set_gauge i (int_of_float (st.idle_s.(k) *. 1e6));
    Pvr_obs.set_gauge t st.tasks_n.(k)
  done

(* ---- barrier rounds ------------------------------------------------------- *)

(* Hand workers 0..w-1 the closure [body] and wait until all [w] report
   done; [body] returns how many tasks its worker executed.  The body runs
   outside the pool mutex; completion decrements [remaining] under it. *)
(* Rounds are serialized: two concurrent [run]s would otherwise race on
   the per-worker mailboxes.  In practice only the batch engine dispatches
   rounds (serve sessions run their engines inline and parallelize across
   sessions via [submit]), so this mutex is uncontended. *)
let round_mu = Mutex.create ()

let dispatch_round ~w body =
  Mutex.lock round_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock round_mu) @@ fun () ->
  ensure_workers w;
  let remaining = ref w in
  let round_busy = Array.make w 0.0 in
  let t_start = Unix.gettimeofday () in
  Mutex.lock st.mu;
  for k = 0 to w - 1 do
    st.mailbox.(k) <-
      Some
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let executed = body () in
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.lock st.mu;
          round_busy.(k) <- dt;
          st.busy_s.(k) <- st.busy_s.(k) +. dt;
          st.tasks_n.(k) <- st.tasks_n.(k) + executed;
          decr remaining;
          Condition.broadcast st.done_cond;
          Mutex.unlock st.mu)
  done;
  Condition.broadcast st.work_cond;
  while !remaining > 0 do
    Condition.wait st.done_cond st.mu
  done;
  let wall = Unix.gettimeofday () -. t_start in
  for k = 0 to w - 1 do
    (* Idle is this round's wall minus this worker's share of it (any
       excess is time the worker spent finishing a previous async item). *)
    st.idle_s.(k) <- st.idle_s.(k) +. Float.max 0.0 (wall -. round_busy.(k))
  done;
  Mutex.unlock st.mu;
  publish_utilization w

let collect results =
  Array.map
    (function
      | Done v -> v
      | Failed e -> raise e
      | Pending -> assert false (* the barrier released only after all *))
    results

let run ~jobs tasks =
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then run_inline tasks
  else begin
    let jobs = min jobs n in
    let w = min jobs max_workers in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    (* Coarse work units: one atomic fetch claims a run of consecutive
       tasks.  8 chunks per worker keeps self-balancing across uneven
       task costs while cutting handout traffic by the chunk factor. *)
    let chunk = max 1 (n / (w * 8)) in
    let body () =
      let executed = ref 0 in
      let rec drain () =
        let lo = Atomic.fetch_and_add next chunk in
        if lo < n then begin
          let hi = min n (lo + chunk) in
          for i = lo to hi - 1 do
            !perturb_hook i;
            (* Distinct array cells per task: no two workers ever write
               the same location. *)
            results.(i) <-
              (match tasks.(i) () with
              | v -> Done v
              | exception e -> Failed e);
            incr executed
          done;
          drain ()
        end
      in
      drain ();
      !executed
    in
    dispatch_round ~w body;
    collect results
  end

(* ---- async items (the serve daemon's execution substrate) ---------------- *)

let submit job =
  (* Callers size the pool themselves (the serve daemon ensures its
     configured worker count at startup); keep a floor of two so a bare
     [submit] can never enqueue into a workerless pool. *)
  if worker_count () = 0 then ensure_workers 2;
  Mutex.lock st.mu;
  Queue.push job st.async_q;
  Condition.broadcast st.work_cond;
  Mutex.unlock st.mu
