(** RSA signatures (PKCS#1 v1.5-style encoding over SHA-256).

    §3.8 of the paper argues PVR is cheap because its only public-key
    operation is "a public-key signature scheme (such as RSA)", quoting
    ~2 ms per RSA-1024 signature on 2011 hardware.  Experiment E4 re-measures
    that claim on this implementation.

    Signing uses the Chinese-Remainder optimization.  This implementation is
    for protocol research: it is not constant-time and must not be used to
    protect real secrets. *)

type public_key = { n : Bigint.t; e : Bigint.t }

type private_key = {
  pub : public_key;
  d : Bigint.t;
  p : Bigint.t;
  q : Bigint.t;
  dp : Bigint.t;   (** d mod (p-1) *)
  dq : Bigint.t;   (** d mod (q-1) *)
  qinv : Bigint.t; (** q^-1 mod p *)
}

val generate : Drbg.t -> bits:int -> private_key
(** Fresh key with an [bits]-bit modulus and e = 65537. *)

val key_size : public_key -> int
(** Modulus size in bytes. *)

val sign : private_key -> string -> string
(** Signature over SHA-256 of the message, one modulus-width string.
    CRT-accelerated over the Montgomery fast path; byte-identical to
    {!sign_plain} (signatures here are deterministic). *)

val sign_plain : private_key -> string -> string
(** Plain [x^d mod n] over the retained naive exponentiation — the
    differential-test oracle for CRT signing.  Like everything in this
    module it is {b not constant-time}; it exists for tests and benches,
    not as a hardened fallback. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** Exact check of one signature: [signature] is one modulus width, below
    the modulus, and raises to the PKCS#1 encoding of [msg]. *)

val raw_apply_public : public_key -> Bigint.t -> Bigint.t
(** The raw RSA permutation x -> x^e mod n, used by {!Ring_signature}. *)

val raw_apply_private : private_key -> Bigint.t -> Bigint.t
(** The inverse permutation x -> x^d mod n (CRT-accelerated). *)

val fingerprint : public_key -> string
(** SHA-256 hash identifying the key (used as a signer id in evidence). *)
