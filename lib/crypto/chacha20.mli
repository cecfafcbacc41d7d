(** ChaCha20 stream cipher (RFC 8439).

    The Rivest–Shamir–Tauman ring signature of {!Ring_signature} needs a
    keyed symmetric permutation E_k; we instantiate it with ChaCha20 in
    counter mode.  {!Commitment.Cache} draws all k nonces of a committed
    bit vector from one {!keystream}. *)

val block : key:string -> counter:int -> nonce:string -> string
(** [block ~key ~counter ~nonce] is the 64-byte keystream block.
    @raise Invalid_argument unless [key] is 32 bytes and [nonce] 12 bytes. *)

val keystream : key:string -> nonce:string -> int -> string
(** [keystream ~key ~nonce len] is the first [len] keystream bytes (block
    counter 0 on), byte-identical to {!encrypt} of [len] zero bytes.
    @raise Invalid_argument unless [key] is 32 bytes and [nonce] 12 bytes. *)

val encrypt : key:string -> nonce:string -> ?counter:int -> string -> string
(** XOR the input with the keystream starting at [counter] (default 0).
    Encryption and decryption are the same operation. *)
