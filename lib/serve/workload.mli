(** Deterministic engine workloads, shared by the CLI's batch commands and
    the serve daemon.

    Both `pvr engine` and a `pvr serve` session construct their world and
    drive their epochs through exactly this module, so for equal
    {!params} they produce byte-identical hash-chained digests — the
    serve-vs-batch differential in the test battery holds by
    construction, not by parallel maintenance of two code paths. *)

type params = {
  p_seed : int;
  p_tiers : string;
  p_peering : float;
  p_ases : int;  (** > 0: power-law generated topology instead of tiers *)
  p_gen_seed : int option;
  p_epochs : int;
  p_jobs : int;
  p_intern : bool;
  p_bits : int;
  p_cache : bool;
  p_salt_every : int;
  p_turnover : float;
  p_origins : int;
  p_ppo : int;
  p_anycast : int;
  p_drop : float;
  p_strategy : Pvr.Adversary.strategy;
  p_mem_ceiling : int;  (** major-heap budget in words; 0 = unbounded *)
  p_spill : bool;  (** page cold vertex state out through the store *)
}

val defaults : params
(** The CLI's flag defaults: hierarchy "1,2,4", seed 42, 5 epochs,
    jobs 1, RSA-512, cache on, intern off. *)

type world = {
  w_topo : Pvr_bgp.Topology.t;
  w_keyring : Pvr.Keyring.t;
  w_churn : Pvr_bgp.Update_gen.Churn.t;
  w_churn_rng : Pvr_crypto.Drbg.t;
  w_engine_rng : Pvr_crypto.Drbg.t;
}

val build_world : ?quiet:bool -> params -> world
(** Deterministic world construction.  The split order on the master
    DRBG — "topology", "keys", "churn", "engine" — is part of the
    on-disk contract: a resumed run replays the same streams, so it must
    never change.  Also flips the global intern toggle to [p_intern]. *)

val engine_core :
  ?quiet:bool ->
  ?on_phase:(epoch:int -> string -> unit) ->
  ?on_report:(Pvr_engine.Engine.epoch_report -> unit) ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?checkpoint_every:int ->
  ?fsync:bool ->
  world ->
  params ->
  (string * int, string) result
(** Run [p_epochs] engine epochs over a pre-built world.  [on_phase
    ~epoch phase] fires at the epoch's internal barriers
    ("apply"/"collect"/"verify") and after the journal write ("record") —
    the crash-soak kill hook.  [on_report] fires once per completed epoch
    with its report — the serve daemon streams a verdict frame from it.
    Returns [(final_digest, total_convictions)], or [Error] when the
    checkpoint store is unrecoverable. *)
