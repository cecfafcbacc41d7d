(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the cryptographic hash the paper names in §3.8 as the main PVR
    primitive ("The most expensive operations we have used are a
    cryptographic hash-function (such as SHA-256) ... and a public-key
    signature scheme").  The streaming interface supports incremental
    hashing of BGP message batches. *)

type ctx
(** Mutable hashing context.  Single-owner: a ctx must not be shared across
    domains without external synchronization. *)

val init : unit -> ctx

val reset : ctx -> unit
(** Return the context to its initial state.  Lets hot loops reuse one
    allocation for any number of digests (see {!digest_with}). *)

val copy : ctx -> ctx
(** Clone the running state (a {e midstate}).  HMAC uses this to precompute
    the keyed inner/outer block once per key. *)

val update : ctx -> string -> unit
(** Absorb more input.  May be called any number of times. *)

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs the [len] bytes of [s] at [off],
    as [update ctx (String.sub s off len)] would, without the copy.
    @raise Invalid_argument unless [off] and [len] name a range of [s];
    nothing is absorbed then. *)

val finalize : ctx -> string
(** Produce the 32-byte digest.  Pads in place — no intermediate
    allocation.  The context must be {!reset} before any reuse. *)

val digest : string -> string
(** One-shot hash: 32-byte (raw, not hex) digest of the input. *)

val digest_with : ctx -> string -> string
(** One-shot hash through a caller-owned reusable context ({!reset} +
    {!update} + {!finalize}); identical output to {!digest} with no per-op
    context allocation. *)

val digest_many : ctx -> string list -> string list
(** Multi-buffer one-shot: digest each independent input through one
    reusable context, in order.  Equivalent to [List.map digest]. *)

val digest_hex : string -> string
(** One-shot hash, hex-encoded (64 characters). *)

val digest_parts : string list -> string
(** Digest-of-state helper: hash every part length-framed (8-byte
    big-endian length before each part), so distinct splits of the same
    bytes produce distinct digests.  Raw 32-byte output. *)

val digest_parts_hex : string list -> string
(** {!digest_parts}, hex-encoded. *)

val digest_parts_with : ctx -> string list -> string
(** {!digest_parts} through a caller-owned reusable context. *)

val update_part : ctx -> string -> unit
(** Absorb one part length-framed, as {!digest_parts} frames each of its
    parts: [digest_parts ps] is {!reset}, [update_part] per part, then
    {!finalize}. *)

(** Fixed-width one-shot hashing with a precomputed padded layout.

    For messages of a known constant width (per-bit commitment preimages,
    length-framed digest blocks) the whole padding — 0x80 marker, zero
    fill, 64-bit length — is computed once at {!Fixed.create}; each
    {!Fixed.digest} blits the message over the template and compresses
    every block in one kernel call.  Output is identical to {!digest} (the
    KAT suite asserts it).  A [Fixed.t] owns mutable scratch and is
    single-owner, like {!ctx}. *)
module Fixed : sig
  type t

  val create : int -> t
  (** Template for messages of exactly that many bytes. *)

  val width : t -> int

  val digest : t -> string -> string
  (** @raise Invalid_argument if the message width does not match. *)
end

(** {2 Compression kernels}

    The block compression runs on the CPU's SHA extensions (x86
    [sha256rnds2]/[sha256msg1]/[sha256msg2], a C stub) when CPUID reports
    them together with SSSE3 and SSE4.1, and otherwise on the OCaml
    compression.  The choice is made once, when the module loads, and
    nothing else selects it.  Both kernels produce the same digests and
    the same ["crypto.sha256.blocks"] count. *)

val accelerated : bool
(** [true] when this process compresses on the SHA extensions.  Also
    published as the fixed gauge ["crypto.sha256.accelerated"] (1 or 0). *)

(** Oracle: contexts that always compress on the OCaml kernel, whatever the
    CPU.  [sha256 FIPS KATs], [sha256 split updates] and [sha256 Fixed
    widths] run on both kernels against it, and E4 times it. *)
module Reference : sig
  val init : unit -> ctx
  (** Like {!init}; {!reset}, {!copy} and every [*_with] function keep
      the context on the OCaml kernel. *)

  val fixed : int -> Fixed.t
  (** Like {!Fixed.create}. *)
end

val digest_size : int
(** 32. *)

val block_size : int
(** 64 — needed by HMAC. *)
