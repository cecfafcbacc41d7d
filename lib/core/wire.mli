(** Signed protocol messages.

    Everything a PVR participant may later have to show a third party is a
    [signed] statement with an injective byte encoding; signatures are RSA
    over SHA-256 ({!Pvr_crypto.Rsa}).  Epochs number the verification
    rounds: commitments from different epochs never mix. *)

module Bgp = Pvr_bgp

type epoch = int

type 'a signed = private { payload : 'a; signer : Bgp.Asn.t; signature : string }

val sign :
  Keyring.t -> as_:Bgp.Asn.t -> encode:('a -> string) -> 'a -> 'a signed
(** Sign a payload with the AS's key from the keyring: {!sign_batch} over a
    batch of one, which is a plain RSA signature over the tagged encoding. *)

(** {2 Batched signing (§3.8)}

    "Sign messages in batches, perhaps using a small MHT to reveal batched
    routes individually."  All statements a signer drafts for one
    {!sign_batch} call share one RSA signature over the domain-tagged root
    of a Merkle tree whose leaves are the statements; each statement's
    signature is [rsa_sig(root) ‖ nonce ‖ leaf index ‖ siblings] (16-byte
    nonce, u32 index, 32-byte sibling digests from the leaf up).  A signer
    with a single statement gets a plain RSA signature, byte-identical to
    {!sign}.  {!verify} and {!verify_batch} accept both shapes.

    Each statement is hashed once, to m = SHA-256("pvr-signed-v1:" ‖
    encoding); its leaf is SHA-256(0x00 ‖ nonce ‖ m), 49 bytes and one
    compression.  The 16-byte nonce is the head of SHA-256(K ‖ m) for a
    secret 64-byte block K derived from the signer's private key, so
    sibling digests reveal nothing about the other statements in the
    batch; the path depth reveals ceil(log2 n) of the signer's batch size
    n, and the index its rank by nonce.  The RSA signature covers
    "pvr-batch-root-v2:" ‖ root.  Signatures are a deterministic function
    of the signer's key and the set of statements in its batch. *)

type 'a draft
(** A statement waiting for its signature. *)

val draft : as_:Bgp.Asn.t -> encode:('a -> string) -> 'a -> 'a draft

type pending = Pending : 'a draft -> pending
(** A draft with its payload type packed away, so one batch can mix
    statement kinds. *)

val sign_batch : Keyring.t -> pending list -> unit
(** Sign every draft: drafts are grouped by signer and each group is signed
    as one batch, identical messages sharing one leaf.
    @raise Not_found for an AS without a key. *)

val signed : 'a draft -> 'a signed
(** The signed statement of a draft that went through {!sign_batch}.
    @raise Invalid_argument if it has not been signed yet. *)

val sign_with :
  Pvr_crypto.Rsa.private_key -> as_:Bgp.Asn.t -> encode:('a -> string) -> 'a -> 'a signed
(** Sign with an explicit key — used by the forgery adversary, whose key
    does {e not} match its claimed identity. *)

type check
(** One member of a {!verify_batch} call, payload type packed away so a
    batch can mix statement kinds. *)

val check : encode:('a -> string) -> 'a signed -> check

(** Positive verdicts of exact RSA verification.  Keys are the exact bytes
    of (verifying AS, signer, signed message, RSA signature), where the
    signed message is the tagged statement of a plain signature or the
    tagged Merkle root of a batched one.  Only verifications that
    succeeded are stored.  A table serves one keyring and may be shared
    between domains. *)
module Verified : sig
  type t

  val create : unit -> t
end

val verify_batch :
  ?verified:Verified.t * Bgp.Asn.t -> Keyring.t -> check list -> bool list
(** One verdict per check, in order, each exactly the per-item {!verify}
    verdict (unknown signers are [false]).  Each statement's Merkle path is
    recomputed; its (signer, root, RSA signature) is then looked up in the
    table under the verifying AS, and only a miss pays [Rsa.verify].
    [verified = (table, verifier)] remembers verdicts across calls — the
    engine keeps one table per epoch; without it the call uses a table of
    its own, so identical statements within one call (gossip fan-out) cost
    one verification.  Evidence for a third party must be checked without
    a caller's table. *)

val verify :
  ?verified:Verified.t * Bgp.Asn.t ->
  Keyring.t ->
  encode:('a -> string) ->
  'a signed ->
  bool
(** Check the signature, plain or batched, against the signer's public key
    in the keyring: {!verify_batch} over one check.  Returns [false] (never
    raises) for unknown signers and for signature bytes of neither
    shape. *)

(** {2 Statements} *)

type announce = {
  ann_epoch : epoch;
  ann_to : Bgp.Asn.t;      (** the AS being given the route (A) *)
  ann_route : Bgp.Route.t;
}
(** N_i's signed route announcement to A ("we can sign all the routing
    announcements", §3.2). *)

type commit = {
  cmt_epoch : epoch;
  cmt_prefix : Bgp.Prefix.t;
  cmt_scheme : string;
      (** ["min"] (§3.3), ["noshorter"] (promise 4) or ["graph"] (§3.6) *)
  cmt_commitments : string list;
      (** the published digests: [c_1..c_k] over the shortest input (§3.3)
          or over the shortest export (promise 4, same layout), or the
          vertex-MHT root (§3.6) *)
}
(** A's commitment message, broadcast to all neighbors and gossiped. *)

type export = {
  exp_epoch : epoch;
  exp_to : Bgp.Asn.t;     (** the beneficiary (B) *)
  exp_route : Bgp.Route.t;
  exp_provenance : announce signed option;
      (** the original signed announcement of the chosen input route, which
          B uses for §3.2 condition 1 *)
}
(** A's route export to B. *)

val encode_announce : announce -> string
val encode_commit : commit -> string
val encode_export : export -> string

val encode_signed : encode:('a -> string) -> 'a signed -> string
(** Encoding of a signed statement including its signature (used when a
    signed statement is nested inside another or inside evidence). *)

val equal_commit : commit signed -> commit signed -> bool
(** Same signer, same payload bytes.  Signatures are not compared: the
    same payload signed in two batches carries two valid signatures, which
    is not equivocation. *)

(** {2 Transport decoding}

    [encode_signed] above is the transport format; these parse it back.
    Decoded values are {e unverified} until {!verify} is run on them —
    decoding never checks signatures, and malformed input yields [None],
    never an exception. *)

val decode_announce : string -> announce option
val decode_commit : string -> commit option
val decode_export : string -> export option

val decode_route : string -> Bgp.Route.t option
(** Inverse of {!Pvr_bgp.Route.encode}. *)

val decode_signed :
  decode:(string -> 'a option) -> string -> 'a signed option
(** Inverse of {!encode_signed}. *)
