(** RSA signatures (PKCS#1 v1.5-style encoding over SHA-256).

    §3.8 of the paper argues PVR is cheap because its only public-key
    operation is "a public-key signature scheme (such as RSA)", quoting
    ~2 ms per RSA-1024 signature on 2011 hardware.  Experiment E4 re-measures
    that claim on this implementation.

    Signing uses the Chinese-Remainder optimization.  Every key carries
    the {!Bigint.Mont} contexts of its moduli (n, and p and q for a
    private key), built once by {!generate}, so no sign, verify or ring
    signature operation rebuilds one.  The contexts are plain immutable
    data: keys still compare and hash structurally.  This implementation
    is for protocol research: it is not constant-time and must not be
    used to protect real secrets. *)

type public_key = {
  n : Bigint.t;
  e : Bigint.t;
  n_mont : Bigint.Mont.t;  (** the context of [n] *)
}

type private_key = {
  pub : public_key;
  d : Bigint.t;
  p : Bigint.t;
  q : Bigint.t;
  dp : Bigint.t;   (** d mod (p-1) *)
  dq : Bigint.t;   (** d mod (q-1) *)
  qinv : Bigint.t; (** q^-1 mod p *)
  p_mont : Bigint.Mont.t;  (** the context of [p] *)
  q_mont : Bigint.Mont.t;  (** the context of [q] *)
}

val generate : Drbg.t -> bits:int -> private_key
(** Fresh key with an [bits]-bit modulus and e = 65537. *)

val key_size : public_key -> int
(** Modulus size in bytes. *)

val sign : private_key -> string -> string
(** Signature over SHA-256 of the message, one modulus-width string.
    CRT over the key's Montgomery contexts of p and q; byte-identical to
    {!sign_plain} (signatures here are deterministic). *)

val sign_plain : private_key -> string -> string
(** Oracle: plain [x^d mod n] over {!Pvr_crypto.Bigint.mod_pow_naive},
    which [CRT sign ≡ plain x^d mod n] and [CRT sign at 1024 bits]
    compare {!sign} against, and E4 times beside it.  Like everything in this
    module it is {b not constant-time}; it exists for tests and benches,
    not as a hardened fallback. *)

val verify : public_key -> msg:string -> signature:string -> bool
(** Exact check of one signature: [signature] is one modulus width, below
    the modulus, and raises to the PKCS#1 encoding of [msg].  A signature
    of the wrong width or at or above the modulus is refused before any
    exponentiation. *)

val raw_apply_public : public_key -> Bigint.t -> Bigint.t
(** The raw RSA permutation x -> x^e mod n, used by {!Ring_signature}. *)

val raw_apply_private : private_key -> Bigint.t -> Bigint.t
(** The inverse permutation x -> x^d mod n (CRT-accelerated). *)

val fingerprint : public_key -> string
(** SHA-256 hash identifying the key (used as a signer id in evidence). *)
