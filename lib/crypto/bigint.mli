(** Arbitrary-precision natural numbers.

    The sealed build environment has no [zarith], so RSA and the ring
    signature run on this module: little-endian arrays of 31-bit limbs, with
    schoolbook and Karatsuba multiplication, Knuth Algorithm-D division,
    and Euclid's algorithm over {!rem} and {!divmod} for {!gcd} and
    {!mod_inv}.

    Modular exponentiation by an odd modulus runs in C
    ([bigint_stubs.c]): Montgomery multiplication over 64-bit limbs
    (word-by-word CIOS with 128-bit products) inside the whole
    exponentiation, fixed-window (w = 4) for exponents over 32 bits and
    plain binary below.  A {!Mont} context, built once per modulus, holds
    the modulus words and their Montgomery constants; it is immutable, so
    domains share it.  The kernel copies its operands onto the C stack,
    releases the domain lock while it computes and never allocates on the
    OCaml heap.  Nothing here is constant-time.

    All values are non-negative; {!sub} raises on underflow.  Values are
    immutable and canonical (no most-significant zero limbs), so structural
    equality coincides with numeric equality. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value exceeds [max_int]. *)

val of_string : string -> t
(** Parse a decimal string, or hex with a ["0x"] prefix. *)

val to_string : t -> string
(** Decimal representation. *)

val of_bytes_be : string -> t
(** Interpret a byte string as a big-endian natural number (linear time;
    the empty string is zero). *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Minimal big-endian byte representation (linear time; zero is one
    zero byte); [pad_to] left-pads with zero bytes to a fixed width.
    @raise Invalid_argument if the value does not fit in [pad_to] bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)].  @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; 0 for zero. *)

val test_bit : t -> int -> bool

val add_int : t -> int -> t
val sub_int : t -> int -> t
val mul_int : t -> int -> t
val rem_int : t -> int -> int
(** Remainder by a positive native int. *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation.  Odd moduli go through a fresh {!Mont}
    context; even moduli, and moduli or exponents wider than the
    kernel's 16384 bits, fall back to {!mod_pow_naive}.  Both paths return
    identical values — the differential test battery asserts it on random
    inputs.
    @raise Division_by_zero if [modulus] is zero. *)

(** Montgomery contexts: one per odd modulus, reused by every
    exponentiation under it (RSA keys keep one each for n, p and q). *)
module Mont : sig
  type nat := t

  type t
  (** An odd modulus m of k 64-bit words with m0' = -m{^-1} mod 2{^64},
      R{^2} mod m and R mod m, R = 2{^64k}.  Immutable: structural
      equality and hashing work, and domains may share one. *)

  val create : nat -> t
  (** @raise Invalid_argument if the modulus is even (zero included) or
      wider than 16384 bits. *)

  val pow : t -> base:nat -> exp:nat -> nat
  (** [base{^exp} mod m]; a base at or above m is reduced first.  Bumps
      ["crypto.bigint.mont_pow.ops"].
      @raise Invalid_argument if [exp] is wider than 16384 bits. *)

  val to_mont : t -> nat -> nat
  (** Montgomery form x·R mod m. *)

  val mul : t -> nat -> nat -> nat
  (** Montgomery product a·b·R{^-1} mod m: on Montgomery forms, the
      Montgomery form of the product. *)
end

val mod_pow_naive : base:t -> exp:t -> modulus:t -> t
(** Oracle: the original square-and-multiply implementation, one Knuth
    division per step, and the fallback of {!mod_pow} for even or too-wide
    moduli.  [Montgomery mod_pow ≡ square-and-multiply], [Mont kernel ≡
    naive] and the other [crypto-kat] differentials compare the kernel
    against it, and E4 times it.  Like the kernel it is {b not
    constant-time} and must not be treated as side-channel hardened.
    @raise Division_by_zero if [modulus] is zero. *)

val gcd : t -> t -> t

val mod_inv : t -> t -> t
(** [mod_inv a m] is the inverse of [a] modulo [m].
    @raise Not_found if [gcd a m <> 1]. *)

val random_bits : Drbg.t -> int -> t
(** Uniform value with at most [n] bits. *)

val random_below : Drbg.t -> t -> t
(** Uniform in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument if the bound is zero. *)

val random_odd_bits : Drbg.t -> int -> t
(** Uniform odd value with exactly [n] bits (top and bottom bits set);
    used by prime generation.  Requires [n >= 2]. *)
