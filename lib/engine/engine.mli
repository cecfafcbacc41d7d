(** Continuous, topology-wide verification: the steady-state system §3.8's
    overhead argument is about.

    The engine drives {e every promising AS} of a simulated internet
    ({!Pvr_bgp.Topology} + {!Pvr_bgp.Simulator}) through a sequence of
    verification epochs.  Each {!epoch}: apply a BGP update batch to the
    simulator, run it to convergence, diff every prover's inputs/export
    against the previous epoch, and re-run §3.3 minimum rounds {e only for
    the dirty vertices} — a vertex is one (prover, prefix) promise with its
    providing neighbors and a beneficiary.  Clean vertices carry their
    previous outcome forward untouched.

    {2 Incremental commitments}

    Every recomputed vertex runs the one round of {!Pvr.Runner} — draft,
    sign, check — whatever its plan and transport, and keeps a disclosure
    ledger.  Recomputed rounds draw no fresh randomness: commitment nonces
    are {e derived} ({!Pvr_crypto.Commitment.Cache}) from an epoch salt,
    itself derived from the engine's master seed and rotated every
    [salt_every] epochs (the wire epoch is the salt-period index, so
    commitments from different periods never mix).  Within a period an
    unchanged route therefore reproduces byte-identical announces,
    commitments and exports, which per-vertex memo tables turn into cache
    hits — no SHA-256, no RSA.  Hits/misses are exported through {!Pvr_obs}
    (["crypto.commitment.cache.*"], ["engine.cache.sign.*"]).

    {2 Multicore scheduling and determinism}

    Dirty vertices are scheduled onto a {!Pool} of OCaml 5 domains
    ([jobs]).  Every task is a pure function of (master seed, vertex
    snapshot, salt period): rounds use derived nonces only, and
    fault-injected rounds seed their transport from the vertex snapshot
    digest.  Hence the determinism contract: {b same seed ⇒ byte-identical
    reports and digest, for any [jobs] and for the cache on or off}.  The
    test suite asserts both equivalences. *)

module Bgp = Pvr_bgp

type t

type vertex = { vprover : Bgp.Asn.t; vprefix : Bgp.Prefix.t }

type outcome = {
  vx_vertex : vertex;
  vx_beneficiary : Bgp.Asn.t;
  vx_providers : Bgp.Asn.t list;  (** sorted by ASN *)
  vx_routes : (Bgp.Asn.t * Bgp.Route.t) list;
      (** the round's inputs, as received at the prover *)
  vx_recomputed : bool;  (** [false]: carried forward from a clean epoch *)
  vx_behaviour : Pvr.Adversary.behaviour;
      (** what the strategy planned at this vertex *)
  vx_detected : bool;
  vx_convicted : bool;
  vx_evidence : int;
  vx_kinds : string list;
      (** sorted, deduplicated {!Pvr.Evidence.kind} tags of the evidence
          raised this round — the queryable violation classes; [[]] when
          nothing was raised.  Persisted in spill pages and evidence-row
          journal frames, never part of [vx_line] (digests are
          unchanged). *)
  vx_leaked_bits : int;
      (** total bits disclosed across all parties (and the court) per the
          {!Pvr.Leakage} accounting convention *)
  vx_excess_bits : int;
      (** audited bits beyond each party's plain-BGP baseline, summed over
          providers, beneficiary and the coalition (positive excess on a
          cheating round is the meter flagging the cheat) *)
  vx_required : bool;
      (** §2.3 Detection must have fired: {!Pvr.Runner.detection_expected}
          on the round's delivery (full delivery without [faults]) *)
  vx_line : string;
      (** canonical one-line rendering; the per-epoch digest hashes these.
          Excludes [vx_recomputed], so it is identical whether the outcome
          was recomputed or carried forward. *)
}

type epoch_report = {
  ep_epoch : int;  (** engine epoch, 1-based *)
  ep_period : int;  (** salt period = (epoch-1) / salt_every *)
  ep_changes : int;  (** update-batch size reported by [apply] *)
  ep_msgs : int;  (** simulator messages to convergence *)
  ep_vertices : int;  (** live vertices this epoch *)
  ep_dirty : int;  (** rounds actually recomputed *)
  ep_skipped : int;  (** clean vertices carried forward *)
  ep_detected : int;
  ep_convicted : int;
  ep_outcomes : outcome list;  (** every live vertex, sorted by (prover, prefix) *)
  ep_digest : string;
      (** running hex digest over all epochs so far (hash-chained) *)
}

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?salt_every:int ->
  ?max_path_len:int ->
  ?strategy:Pvr.Adversary.strategy ->
  ?faults:Pvr.Runner.fault_profile ->
  Pvr_crypto.Drbg.t ->
  Pvr.Keyring.t ->
  topology:Bgp.Topology.t ->
  sim:Bgp.Simulator.t ->
  unit ->
  t
(** [jobs] (default 1) worker domains, fed by the dynamic {!Pool}; the
    report digest is byte-identical for any [jobs]; [cache] (default
    [true]) — off means every live vertex is recomputed every epoch with
    no memo tables (the E11 baseline); [salt_every] (default 8) epochs per
    salt period;
    [strategy] (default [Sweep Honest]) is the adversary policy asked,
    per vertex and wire epoch, what each prover does
    ({!Pvr.Adversary.perturb});
    [faults] (default none: the [Direct] transport) checks each round over
    [Pvr.Runner.Net faults].  The master seed is drawn from the
    DRBG at creation — the engine never touches the generator again, so
    results are independent of later draws from it. *)

val epoch :
  ?apply:(Bgp.Simulator.t -> int) ->
  ?on_phase:(string -> unit) ->
  t ->
  epoch_report
(** Advance one epoch: [apply] injects this epoch's update batch into the
    simulator and returns its size (default: no changes), then the engine
    converges the simulator and verifies.  Raises whatever a task raised,
    after the worker pool drains.

    [on_phase] is called at the epoch's internal barriers — ["apply"]
    (simulator converged), ["collect"] (vertices enumerated), ["verify"]
    (worker pool drained) — and exists so the crash-soak harness can kill
    the process mid-epoch at seeded points.  It must not mutate engine
    state.  Two more phases fire only on bounded-memory runs: ["unspill"]
    after classification when any spilled page was read back (or found
    stale), and ["spill"] inside the governor immediately after the first
    page of a spill batch hits the store. *)

val current_epoch : t -> int

(** {2 Bounded memory}

    With a ceiling set, the governor checks the major heap after every
    epoch.  When it is over, the governor pages every (prover, prefix)
    vertex not recomputed this epoch out through the {!pager}, coldest
    first, and compacts; if the heap is still over, it pages out the rest
    and compacts again.  A spilled slot keeps only its snapshot digest,
    salt period and page address, and no memo tables.  Spills and page
    reads are counted under ["engine.mem.*"].  Spilling is
    digest-invariant: a spilled vertex's carried outcome is read back
    transiently each epoch, equal to the resident one field by field, and
    any unreadable page degrades to recomputation, which purity makes
    byte-identical. *)

type pager = {
  pg_append : blob:string -> int;
      (** persist one page blob, returning its stable address *)
  pg_read : off:int -> (string, string) result;
}
(** Paging backend for the spill layer.  {!Persist.pager} wires this to
    the WAL journal (CRC-framed, torn-tail safe); {!memory_pager} is the
    store-free variant for tests. *)

val memory_pager : unit -> pager
(** An in-heap pager (a hashtable of blobs).  Useless for saving memory —
    it exists so differential tests can exercise the spill machinery
    without a store directory. *)

val set_governor : t -> ceiling:int -> pager:pager -> unit
(** Set the major-heap budget in words and the pager the governor spills
    through.  [ceiling] [0] is unbounded, the default, and then the pager
    is never used.  The governor compares the ceiling against
    [Gc.quick_stat].heap_words — the same figure the
    ["engine.gc.heap_words"] gauge exports. *)

val resident_states : t -> int
(** Vertices whose carry-forward state is in the heap. *)

val spilled_states : t -> int
(** Vertices currently paged out to the store. *)

val digest : t -> string
(** The running report digest ([ep_digest] of the latest epoch; the hex
    digest of an empty history before the first one). *)

val signatures : t -> (string * string) list
(** Every signed statement held in the resident memo tables, as (memo key,
    signature), sorted.  With the caches on these are the epoch-batched
    signatures (§3.8) of the statements the last rounds signed; a test hook
    for their determinism. *)

val row_of_outcome : epoch:int -> outcome -> Pvr_query.Row.t
(** The evidence-plane row of an outcome; its body
    ({!Pvr_query.Row.encode_body}) is also the outcome part of the engine's
    spill pages. *)

val report_line : epoch_report -> string
(** One canonical summary line, stable across [jobs] and cache settings:
    [epoch=… period=… changes=… msgs=… vertices=… dirty+skipped=… detected=…
    convicted=… digest=…] — except for [dirty]/[skipped], which reflect the
    cache setting by design. *)

(** {2 Resume}

    Crash tolerance rests on the determinism contract: every verification
    outcome is a pure function of (master seed, vertex snapshot, salt
    period), so a resumed engine only needs (a) the simulator state — which
    replay of the deterministic churn stream rebuilds via {!skip_epoch} —
    and (b) the hash chain position, which the journal's newest epoch
    record holds.  No per-vertex state is carried over: every vertex
    recomputes once in the first epoch after a resume, and the digest is
    still byte-identical. *)

val skip_epoch : ?apply:(Bgp.Simulator.t -> int) -> t -> int * int
(** Fast-forward one epoch: apply the update batch and converge the
    simulator without verifying.  Returns [(changes, msgs)].  Used by
    resume to replay the churn stream up to the journaled epoch. *)

val rib_digest : t -> string
(** Hex fingerprint of the full simulator state visible to the engine
    (Loc-RIB and per-neighbor Adj-RIB-In/Out of every AS):
    {!Pvr_crypto.Sha256.digest_parts_hex} over ["as:<asn>"] and
    {!Bgp.Rib.digest} for each AS whose RIB holds anything, in ASN order.
    Each RIB rehashes only the entries marked since its last digest.
    Resume refuses to continue when the replayed state does not match
    the stored one. *)

val rib_digest_full : t -> string
(** {!rib_digest} recomputed from every entry with {!Bgp.Rib.digest_full},
    reading and clearing no cached digest.  Must always equal
    {!rib_digest} — the differential-oracle suite asserts it. *)

module Checkpoint : sig
  val run_id : t -> string
  (** Digest of the engine's master secret: two engines agree on it iff
      they were created from the same seed stream. *)

  val advance : t -> epoch:int -> chain:string -> rib:string -> (unit, string) result
  (** Move the hash chain to a journal-recorded epoch: the engine must
      already be fast-forwarded to [epoch] (via {!skip_epoch}), and [rib]
      must match the live simulator. *)
end
