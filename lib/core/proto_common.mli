(** Pieces shared by the minimum (§3.3), promise-4 and route-flow-graph
    (§3.5–3.7) protocols, plus the ring-signature variant of §3.2.

    Conventions used throughout:
    - An "input" is a {!Wire.announce} signed by the providing neighbor N_i
      and addressed to the prover A.
    - The exported route carried in a {!Wire.export} is the {e chosen input
      route as received} (before A prepends its own ASN); B compares it
      bytewise against the embedded provenance announcement.
    - Bit indices are 1-based path lengths, as in §3.3: b_i = 1 iff some
      input route has AS-path length ≤ i. *)

type neighbor_disclosure = {
  nd_index : int;  (** which commitment is being opened (1-based) *)
  nd_opening : Pvr_crypto.Commitment.opening;
}
(** What A reveals to a providing neighbor. *)

type beneficiary_disclosure = {
  bd_openings : (int * Pvr_crypto.Commitment.opening) list;
  bd_export : Wire.export Wire.signed option;
}
(** What A reveals to the beneficiary B. *)

val valid_input :
  ?verified:Wire.Verified.t * Pvr_bgp.Asn.t ->
  Keyring.t ->
  prover:Pvr_bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  Wire.announce Wire.signed ->
  bool
(** Is this announcement admissible as an input for the round: addressed
    to the prover, right epoch and prefix, the announcing neighbor is the
    first AS on the route's path, and a valid signature (checked last,
    through [verified] when given: {!Wire.verify_batch})? *)

val valid_inputs :
  Keyring.t ->
  prover:Pvr_bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  Wire.announce Wire.signed list ->
  bool list
(** Batch form of {!valid_input}, one verdict per announce in order.
    Signature checks go through {!Wire.verify_batch}, so duplicate
    announces cost a single RSA verification. *)

val opening_bit_at :
  Wire.commit Wire.signed ->
  index:int ->
  Pvr_crypto.Commitment.opening ->
  bool option
(** Check an opening against commitment [index] (1-based) of a commit
    message; [Some b] if it verifies and encodes bit [b], [None]
    otherwise.  Applied to a commit alone, it indexes the commit's
    digests once and returns a checker whose every lookup is O(1): callers
    that check many openings of one commit apply it once. *)

val export_binds :
  ?verified:Wire.Verified.t * Pvr_bgp.Asn.t ->
  Keyring.t ->
  commit:Wire.commit Wire.signed ->
  beneficiary:Pvr_bgp.Asn.t ->
  Wire.export Wire.signed ->
  bool
(** The export belongs to the commit's round and is addressed to
    [beneficiary]: signed by the commit's signer (signature checked last),
    for the commit's epoch and prefix.  An export that does not bind is no
    export to [beneficiary].  [verified] is a table of roots already
    verified and the verifying AS ({!Wire.verify_batch}); a judge uses a
    fresh one. *)

val export_provenance :
  ?verified:Wire.Verified.t * Pvr_bgp.Asn.t ->
  Keyring.t ->
  Wire.export Wire.signed ->
  Wire.announce Wire.signed option
(** The export's embedded provenance, when it is an input its signer had
    to admit ({!valid_input} for the export's epoch and prefix) whose
    route is the exported route; [None] otherwise.  The export's own
    signature is {!export_binds}'s to check. *)

(** {2 Link-state variant of §3.2 (ring signatures)}

    The paper's link-state remark: the providers sign "a route exists"
    with a ring signature, so B learns that {e some} ring member provided
    a route without learning which.  The route-flow graph round carries
    the existential operator itself ([op:exists]); this variant has no
    graph counterpart. *)

val ring_statement : epoch:Wire.epoch -> prefix:Pvr_bgp.Prefix.t -> string
(** The statement "a route to [prefix] exists in epoch [epoch]". *)

val ring_announce :
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  ring:Pvr_bgp.Asn.t list ->
  signer:Pvr_bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  Pvr_crypto.Ring_signature.t
(** A provider signs the existence statement anonymously within the ring. *)

val ring_check :
  Keyring.t ->
  ring:Pvr_bgp.Asn.t list ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  Pvr_crypto.Ring_signature.t ->
  bool
(** B's check: some ring member signed the statement. *)
