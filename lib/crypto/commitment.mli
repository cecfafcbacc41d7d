(** Hash commitments, the first PVR building block (§3.4).

    §3.2: "A can do this by publishing a commitment c := H(b || p), where H
    is a cryptographic hash function and p is a random bitstring."  The
    nonce is mandatory — the paper's footnote 2 notes that without it a
    neighbor could brute-force small domains (c = H(0) or c = H(1)).

    The digest is [SHA-256("pvr-commit-v2:" || nonce || value)] with a
    nonce of exactly 32 bytes; a bit commitment's preimage is 47 bytes,
    one SHA-256 block.

    A commitment is hiding (the digest reveals nothing about the value, given
    the 32-byte random nonce) and binding.  Binding rests on the nonce's
    fixed width: the tag and the nonce take the first 46 bytes of every
    preimage, so one preimage splits into (nonce, value) one way only, and
    opening to a different value requires a SHA-256 collision.  An opening
    whose nonce is not 32 bytes could shift bytes between nonce and value,
    so {!verify} rejects it. *)

type commitment = private string
(** The published digest (32 bytes).  Comparable with [=]. *)

type opening = { value : string; nonce : string }
(** What the committer reveals to authorized parties. *)

val commit : Drbg.t -> string -> commitment * opening
(** Commit to an arbitrary byte string with a fresh 32-byte nonce. *)

val commit_with_nonce : nonce:string -> string -> commitment
(** Deterministic form, for recomputation during verification.
    @raise Invalid_argument unless [nonce] is 32 bytes. *)

val verify : commitment -> opening -> bool
(** Does the opening match the commitment?  [false] for a nonce that is
    not 32 bytes.  Constant-time comparison. *)

val commit_bit : Drbg.t -> bool -> commitment * opening
(** Commitment to a single bit, as in §3.2 / §3.3 (bits b, b_1 .. b_k). *)

val opening_bit : opening -> bool option
(** Interpret an opening's value as a bit; [None] if it is not ["0"]/["1"]. *)

(** Memo table of derived bit-vector commitments for the engine's
    incremental verification: one cache per prover, scoped to an epoch-salt
    period whose salt is the cache's key.

    A miss derives all k nonces of a vector from one stream:
    [stream_key = HMAC(salt, "pvr-commit-stream-v2" || context || pattern)]
    (the three fields length-framed by {!Codec.encode_list}), and nonce i
    is bytes \[32i, 32i+32) of the ChaCha20 keystream under [stream_key]
    (nonce 0, counter 0).  Given the secret salt, the stream key is
    pseudorandom to everyone else and so are the nonces, so each commitment
    hides its bit.  The bit index is the stream offset, so no two positions
    share a nonce and equal bits at different positions do not collide.
    The pattern is in the key, so two different vectors at one context are
    committed under unrelated streams: they share no nonce and no
    commitment, a changed bit never reuses a disclosed nonce, and a provider
    comparing two epochs' commitments cannot tell which bits stayed
    unchanged.  Equal (salt, context, pattern) reproduce byte-identical
    commitments, which is what makes them cacheable across verification
    epochs.

    Hits and misses are exported through {!Pvr_obs} as
    ["crypto.commitment.cache.hits"] / [".misses"], one per bit, plus
    [".vector.hits"]; a hit performs no SHA-256 work at all. *)
module Cache : sig
  type t

  val create : ?period:int -> key:string -> unit -> t
  (** [key] is the secret salt; [period] (default 0) is the salt period
      the key belongs to. *)

  val period : t -> int

  val rotate : t -> period:int -> key:string -> unit
  (** Salt rotation: if [period] (or [key]) differs from the cache's
      current one, drop every entry and re-key; otherwise a no-op.  Lets
      long-lived caches survive rotation without reallocating. *)

  val commit_bit_vector :
    t -> context:string -> bool list -> (commitment * opening) list
  (** Commit a whole bit vector.  [context] must uniquely identify the
      committing position (e.g. ["prover|prefix|wire epoch"]): two
      positions sharing a context and a pattern share their commitments. *)
end

val to_hex : commitment -> string

val of_raw : string -> commitment
(** Treat a received 32-byte string as a commitment digest.
    @raise Invalid_argument on wrong length. *)
