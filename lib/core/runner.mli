(** The one verification round, for the §3.3 minimum and the §3.5–3.7
    graph operators alike, in three phases (§3.4: commit, disclose
    selectively, verify): {b draft} ({!Proto_min.draft} and
    {!Adversary.perturb}, or {!Proto_graph.draft}), {b sign} ({!sign}, one
    {!Wire.sign_batch} per signer across all drafts) and {b check}
    ({!check}: delivery over a {!transport}, every party's checks, gossip
    and the {!Judge}).  The engine runs the phases over its dirty set;
    {!min_round}, {!min_round_faulty} and {!graph_round} run them for one
    vertex.  Experiment E8 sweeps this over behaviours and topologies; the
    test suite asserts the §2.3 properties on the reports. *)

module Bgp = Pvr_bgp

type report = {
  raised : (Adversary.detector * Evidence.t) list;
      (** evidence, tagged by the party that produced it *)
  judged : (Adversary.detector * Evidence.t * Judge.verdict) list;
  detected : bool;     (** at least one piece of evidence was raised *)
  convicted : bool;    (** at least one piece judged [Guilty] *)
  exonerated : bool;   (** some accusation was disproved by A *)
  messages : int;      (** protocol messages exchanged in the round *)
  commit_bytes : int;  (** size of A's commitment message(s) *)
}

type fault_profile = {
  fp_policy : Pvr_net.policy;  (** default policy for every link *)
  fp_links : ((Bgp.Asn.t * Bgp.Asn.t) * Pvr_net.policy) list;
      (** per-link overrides (unordered pairs) *)
  fp_retry_interval : int;  (** ticks between ARQ retransmissions *)
  fp_retry_budget : int;
      (** retransmissions per message, and disclosure re-requests before a
          party raises {!Evidence.Timeout} *)
  fp_gossip_rounds : int;  (** synchronous gossip rounds to run *)
  fp_max_ticks : int;  (** per-phase simulation budget *)
}

val perfect_faults : fault_profile
(** Lossless, delay-free links: every party receives what [Direct]
    delivers, over a simulated channel. *)

type net_report = {
  base : report;
  delivered_announces : Bgp.Asn.t list;
      (** providers whose announce reached A (in delivery order) *)
  acked_announces : Bgp.Asn.t list;
      (** providers that {e know} A received their announce — only these
          may accuse A of withholding a disclosure *)
  commit_holders : Bgp.Asn.t list;
      (** participants holding a commitment (directly or via gossip) *)
  direct_commits : Bgp.Asn.t list;
      (** participants that received their own commitment from A directly *)
  disclosed_to : Bgp.Asn.t list;  (** providers that received their opening *)
  beneficiary_disclosed : bool;
  net_sends : int;  (** transport frames offered on the reliable channel *)
  net_drops : int;  (** frames lost (loss + partition) on it *)
  net_retries : int;  (** ARQ retransmissions performed *)
  net_timeouts : int;  (** sends abandoned past the retry budget *)
  gossip_sends : int;
  gossip_drops : int;
  ticks : int;  (** simulated ticks consumed across both channels *)
}

type transport =
  | Direct
      (** every message arrives, in order, with no simulated ticks; gossip
          runs only when A sent different commitment bytes *)
  | Net of fault_profile
      (** a {!Pvr_net} stop-and-wait ARQ channel for the protocol messages,
          a best-effort one for gossip digests *)

(** {2 Sign} *)

type memo
(** Signed statements by (signer, payload encoding) — exports by
    (provenance signer, encoding without the provenance): a statement found
    here is not signed again. *)

val memo : ?on_lookup:(hit:bool -> unit) -> unit -> memo
(** Empty tables; [on_lookup] is told of every hit and miss. *)

val clear_memo : memo -> unit

val memo_signatures : memo -> (string * string) list
(** Every statement held, as (["signer|encoding"] key, signature). *)

type draft = Min of Proto_min.draft | Graph of Proto_graph.draft
(** Either operator's draft: everything A will send, unsigned. *)

type round = {
  draft : draft;
  announces : (Bgp.Asn.t * Wire.announce Wire.signed) list;
      (** the admitted inputs' signed announces *)
  commit : Wire.commit Wire.signed;  (** sent to the providers *)
  commit_b : Wire.commit Wire.signed;
      (** sent to B (another commitment only under [Equivocate]) *)
  export : Wire.export Wire.signed option;  (** sent to B *)
  answer : Wire.export Wire.signed option;
      (** the export A produces when the judge challenges it *)
}
(** A signed draft: everything A sends in the round. *)

val commit_for : round -> Bgp.Asn.t -> Wire.commit Wire.signed

val neighbor_disclosures :
  round -> (Bgp.Asn.t * Proto_common.neighbor_disclosure option) list
(** Each admitted provider's opening; [None] = A withholds it.  This and
    {!beneficiary_disclosure} raise [Invalid_argument] on a [Graph] round. *)

val beneficiary_disclosure : round -> Proto_common.beneficiary_disclosure

val respond : round -> accused:Bgp.Asn.t -> Judge.challenge -> Judge.response
(** How A answers a judge: as its draft's [dr_answer] says.  A graph A
    produces its export, and has no opening to give. *)

type pool = { run : 'a. (unit -> 'a) array -> 'a array }
(** Runs independent tasks, returning results in task order. *)

val sign : ?pool:pool -> Keyring.t -> (memo * draft) array -> round array
(** Sign the statements missing from each draft's memo (which they then
    enter), one batch per signer: the announces first, then commitments
    and exports, since an export embeds its signed provenance announce.
    [pool] (default: inline) runs the tasks.  Signatures depend on which
    statements share a batch; no outcome does. *)

val prove :
  ?max_path_len:int ->
  ?comply:bool ->
  ?behaviour:Adversary.behaviour ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Bgp.Asn.t ->
  beneficiary:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Bgp.Prefix.t ->
  inputs:Wire.announce Wire.signed list ->
  round
(** One A's draft and sign phases: admit the validly signed inputs within
    [max_path_len] (default {!Proto_min.default_max_path_len}), draft with
    nonces drawn from the DRBG, perturb under [behaviour] (default
    [Honest]) and [comply] (default [false]), and sign. *)

(** {2 Check} *)

type link
(** One round's transport state. *)

val connect :
  transport ->
  Pvr_crypto.Drbg.t Lazy.t ->
  prover:Bgp.Asn.t ->
  (Bgp.Asn.t * 'a) list ->
  link * (Bgp.Asn.t * 'a) list
(** Open the round's transport and deliver each provider's announce;
    returns the link and, in arrival order, the items whose announce
    arrived ([Direct]: the list itself).  [Net] splits its channel
    generators off the DRBG before the prover draws from it; [Direct]
    never forces it. *)

val check :
  ?gossip:[ `Clique | `Ring | `None ] ->
  ?ledger:Leakage.Ledger.ledger ->
  ?verified:Wire.Verified.t ->
  Keyring.t ->
  link ->
  round ->
  net_report
(** Deliver the round and run every party's checks, gossip (default:
    clique) and the judge, each party with its operator's checks.  A party
    still owed a disclosure re-requests it
    up to [fp_retry_budget] times, then raises {!Evidence.Timeout} around
    its omission claim ([Direct]: the bare claim).  [ledger] accounts every
    bit disclosed to each party (openings, the export, judge challenges),
    reusing the bits the checks opened; not yet a graph round's.
    [verified] is the caller's table
    of signature roots already verified, consulted for the beneficiary's
    export check under the beneficiary's name ({!Wire.verify_batch}); the
    judge never sees it.  A [Direct] report shows full delivery and no
    traffic. *)

(** {2 One standalone round} *)

val min_round_faulty :
  ?gossip:[ `Clique | `Ring | `None ] ->
  ?max_path_len:int ->
  ?faults:fault_profile ->
  ?ledger:Leakage.Ledger.ledger ->
  ?comply:bool ->
  Adversary.behaviour ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Bgp.Asn.t ->
  beneficiary:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Bgp.Prefix.t ->
  routes:(Bgp.Asn.t * Bgp.Route.t) list ->
  net_report
(** One round over [Net faults] (default {!perfect_faults}): the providers
    sign and send their announces, then {!prove} over those that arrived,
    then {!check}.  Fault schedules are a deterministic function of the
    seed behind [rng]. *)

val min_round :
  ?gossip:[ `Clique | `Ring | `None ] ->
  ?max_path_len:int ->
  Adversary.behaviour ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Bgp.Asn.t ->
  beneficiary:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Bgp.Prefix.t ->
  routes:(Bgp.Asn.t * Bgp.Route.t) list ->
  report
(** [routes] are the provider announcements (neighbor, route as it arrives
    at A).  Equivalent to [min_round_faulty ~faults:perfect_faults]. *)

val detection_expected :
  Adversary.behaviour ->
  beneficiary:Bgp.Asn.t ->
  routes:(Bgp.Asn.t * Bgp.Route.t) list ->
  net_report ->
  bool
(** Whether the round's fault schedule delivered the behaviour's witnessing
    messages, i.e. whether §2.3 Detection must have fired: some expected
    detector (over the inputs that actually reached A) held the
    commitment and received what it needed — its disclosure, an
    acknowledged announce (for the stonewalling victim), or an unbroken
    clique gossip round (for equivocation).  Assumes clique gossip with at
    least one round.  When this returns [true] on a {!check} report, the
    report must show [detected] and [convicted] for every non-[Honest]
    behaviour; the soak harness asserts exactly that. *)

val announce_of_route :
  Keyring.t ->
  provider:Bgp.Asn.t ->
  prover:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  Bgp.Route.t ->
  Wire.announce Wire.signed
(** Helper shared with the standalone rounds and the examples. *)

val graph_round :
  ?max_path_len:int ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Bgp.Asn.t ->
  beneficiary:Bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Bgp.Prefix.t ->
  promise:Pvr_rfg.Promise.t ->
  routes:(Bgp.Asn.t * Bgp.Route.t) list ->
  report
(** One honest generalized round (§3.5–3.7), run as {!min_round} runs
    the §3.3 one: A drafts [promise]'s reference route-flow graph under its
    minimal α ({!Proto_graph.draft}).  Used by E2 and E3. *)
