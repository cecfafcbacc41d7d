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
      (** inert: read by nothing but the serve wire format.  Routes are no
          longer interned; the field stays while a benchmark sets it. *)
  p_bits : int;
  p_cache : bool;
  p_salt_every : int;
  p_turnover : float;
  p_origins : int;
  p_ppo : int;
  p_anycast : int;
  p_drop : float;
  p_strategy : Pvr.Adversary.strategy;
  p_mem_ceiling : int;
      (** major-heap budget in words; 0 = unbounded, else the governor may
          page cold vertex state out through the store *)
}

val defaults : params
(** The default workload: hierarchy "1,2,4", seed 42, 5 epochs, jobs 1,
    RSA-512, cache on.  The CLI's engine flags read their defaults from
    it. *)

type world = {
  w_topo : Pvr_bgp.Topology.t;
  w_keyring : Pvr.Keyring.t;
  w_churn : Pvr_bgp.Update_gen.Churn.t;
  w_churn_rng : Pvr_crypto.Drbg.t;
  w_engine_rng : Pvr_crypto.Drbg.t;
}

type world_key = {
  k_seed : int;
  k_tiers : string;
  k_peering : float;
  k_ases : int;
  k_gen_seed : int option;
  k_bits : int;
}
(** Exactly the {!params} fields that decide a world's topology and
    keyring.  Params with equal keys build equal [w_topo] and [w_keyring];
    every other field (churn, engine knobs) is re-derived per call. *)

val world_key : params -> world_key

type cache =
  world_key ->
  (unit -> Pvr_bgp.Topology.t * Pvr.Keyring.t) ->
  Pvr_bgp.Topology.t * Pvr.Keyring.t
(** [cache key generate] returns the topology and keyring for [key],
    either remembered or by calling [generate] (the serve daemon's
    world cache).  Sharing them is safe: the engine never mutates a
    topology or a keyring. *)

val tiers_of_string : string -> int list option
(** Tier sizes from their flag syntax: comma-separated positive decimal
    integers, as in ["1,2,4"].  [None] for anything else. *)

val topology :
  Pvr_crypto.Drbg.t ->
  tiers:string ->
  peering:float ->
  ases:int ->
  Pvr_bgp.Topology.t
(** A power-law internet of [ases] ASes when [ases > 0], else the
    [tiers] hierarchy; [peering] is the extra same-tier peering
    probability.  Every draw comes from the given DRBG.  Raises
    [Invalid_argument] when [ases <= 0] and [tiers] is malformed. *)

val build_world : ?quiet:bool -> ?cache:cache -> params -> world
(** Deterministic world construction.  The split order on the master
    DRBG — "topology" (skipped when [p_gen_seed] seeds a generated
    topology), "keys", "churn", "engine" — is part of the on-disk
    contract: a resumed run replays the same streams, so it must never
    change.  The splits are made on every call, cached or not: a [cache]
    hit skips only the [Topology] and [Keyring.create] calls that read
    the "topology" and "keys" streams, so the churn and engine streams of
    a hit equal those of a fresh build.  Without [cache] every world is
    built from scratch. *)

val engine_core :
  ?quiet:bool ->
  ?on_phase:(epoch:int -> string -> unit) ->
  ?on_report:(Pvr_engine.Engine.epoch_report -> unit) ->
  ?on_resume:(Pvr_engine.Persist.resumed -> unit) ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?fsync:bool ->
  world ->
  params ->
  (string * int, string) result
(** Run [p_epochs] engine epochs over a pre-built world.  [on_phase
    ~epoch phase] fires at the epoch's internal barriers
    ("apply"/"collect"/"verify") and after the journal write ("record") —
    the crash-soak kill hook.  [on_report] fires once per completed epoch
    with its report — the serve daemon streams a verdict frame from it.
    [on_resume] fires once a [resume] has recovered the store, with what
    it replayed and dropped.  [checkpoint_dir] journals every epoch into
    that store (reset first unless [resume]); with [resume] the run
    continues after the journal's newest epoch record of this run.  Returns
    [(final_digest, total_convictions)], or [Error] when the checkpoint
    store is unrecoverable. *)
