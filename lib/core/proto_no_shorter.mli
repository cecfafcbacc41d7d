(** A protocol for §2's promise 4: "The route you get is no longer than what
    I tell anybody else."

    The paper lists this promise but sketches no mechanism for it.  Under
    the promise every exported route has the same length, so one §3.3
    threshold vector over A's {e exports} decides it: A commits to
    b_1..b_k with b_i = 1 iff the shortest route it exports to any
    beneficiary has at most i hops ({!Proto_min.commit_claim}, k digests in
    the min scheme's 1-based layout, scheme ["noshorter"]).  The commit and
    every export are signed as one batch.  Each beneficiary that got a
    route is opened all k bits, exactly as §3.3's B; the others get
    nothing, because the promise owes nobody an export.

    A beneficiary B that received a route of length L runs
    {!Proto_min.check_beneficiary}:
    - a set bit below L means someone was told a strictly shorter route:
      {!Evidence.Nonminimal_export};
    - b_L = 0 means A's vector lies about B's own export:
      {!Evidence.Own_vector_mismatch}.  (The min scheme's [False_bit] needs
      an admitted input as witness, and an input A never exported proves
      nothing under promise 4.)

    Detection: if A favours some m and commits truthfully, every
    longer-served beneficiary sees a set bit below its own length; if A
    lies in the vector, the bit at some beneficiary's own length opens
    to 0.

    Confidentiality: under the promise the vector encodes B's own length,
    which B already knows, so the {!Leakage} closure counts zero excess
    facts. *)

open Proto_common

type prover_output = {
  commit : Wire.commit Wire.signed;
      (** scheme ["noshorter"]; commitments = the k bit digests *)
  per_beneficiary : (Pvr_bgp.Asn.t * beneficiary_disclosure) list;
      (** in [beneficiaries] order: every opening and the signed export for
          an exported beneficiary, an empty disclosure for the others *)
}

val scheme : string
(** ["noshorter"]. *)

val prove :
  ?max_path_len:int ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Pvr_bgp.Asn.t ->
  beneficiaries:Pvr_bgp.Asn.t list ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  exports:(Pvr_bgp.Asn.t * Wire.announce Wire.signed) list ->
  prover_output
(** [exports] maps each beneficiary to the input route A chose for it (the
    provenance announcement); beneficiaries without an admitted entry get
    nothing.  k = [max_path_len].  One RSA signature covers the commit and
    every export. *)

val check_beneficiary :
  Keyring.t ->
  me:Pvr_bgp.Asn.t ->
  commit:Wire.commit Wire.signed ->
  disclosure:beneficiary_disclosure ->
  Evidence.t list
(** B's check above; [[]] on an empty disclosure. *)
