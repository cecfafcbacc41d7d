(** Durable engine sessions: glue between {!Engine} and {!Pvr_store.Store}.

    A persisted run appends two journal frames per completed epoch — an
    evidence-rows frame ({!Pvr_query.Frame}, one {!Pvr_query.Row.t} per
    live vertex) followed by the epoch summary record (epoch number, salt
    period, batch size, convergence messages, vertex/outcome tallies, the
    post-epoch hash-chain digest, the simulator RIB digest and the run
    id).  The epoch record is the commit mark for the rows before it.
    A paging run ({!pager}) also appends the governor's spill pages; they
    are the journal's only page frames.  The journal is the whole store:
    nothing else is written.

    {!resume} rebuilds a crashed run from the journal alone: recover the
    store (torn tails truncated), pick the newest epoch record of this
    run, replay the deterministic churn stream with {!Engine.skip_epoch}
    up to it, and adopt its chain with {!Engine.Checkpoint.advance},
    which checks the RIB digest.  Every vertex recomputes once in the
    next epoch, and the continued run produces a digest byte-identical to
    an uninterrupted one — for any jobs value, cache on or off, and under
    fault-injected networks — because outcomes are pure functions of the
    seed and the replayed state. *)

module Store = Pvr_store.Store

type epoch_record = Pvr_query.Frame.epoch_record = {
  er_epoch : int;
  er_period : int;
  er_changes : int;
  er_msgs : int;
  er_vertices : int;
  er_dirty : int;
  er_skipped : int;
  er_detected : int;
  er_convicted : int;
  er_digest : string;  (** hash chain after this epoch *)
  er_rib : string;  (** {!Engine.rib_digest} after this epoch *)
  er_run_id : string;
}

val encode_epoch : epoch_record -> string
val decode_epoch : string -> (epoch_record, string) result

type session

val start : ?fsync:bool -> ?snapshot_every:int -> dir:string -> unit -> session
(** Open [dir] for appending.  [snapshot_every] is accepted and ignored:
    no snapshot is ever written.  It stays for the benchmark driver,
    which still passes it. *)

val pager : session -> run_id:string -> Engine.pager
(** The session's WAL as an {!Engine.pager}: appended pages become tag-4
    journal frames addressed by byte offset (stable for the life of the
    journal — recovery only ever truncates the tail), and reads CRC-check
    the frame and validate [run_id] before handing the blob back.  Install
    with {!Engine.set_pager} to let the governor spill vertex state into
    the same torn-tail-safe store the evidence plane lives in. *)

val record : session -> Engine.t -> Engine.epoch_report -> unit
(** Journal one completed epoch: its rows frame, then its epoch record. *)

val close : session -> unit

type resumed = {
  rs_epoch : int;  (** engine position after resume; [0] = fresh start *)
  rs_replayed : int;  (** epoch records of this run read back *)
  rs_dropped : int;  (** torn tails and foreign or undecodable frames *)
}

val resume :
  ?quiet:bool ->
  dir:string ->
  engine:Engine.t ->
  apply:(epoch:int -> Engine.Bgp.Simulator.t -> int) ->
  unit ->
  (resumed, string) result
(** Resume [engine] (freshly created, epoch 0, same seed stream) from
    [dir].  [apply ~epoch] must reproduce the original run's update batch
    for that epoch — resume replays it for every epoch up to the recovery
    target.  [Ok] with [rs_epoch = 0] means the store was empty (or
    recovered to nothing): start from scratch.  [Error] means the store
    contradicts this run (different seed/parameters, or a RIB replay
    mismatch) — the caller should treat the store as unrecoverable.
    Never raises on corrupt store contents. *)
