(** Arbitrary-precision natural numbers.

    The sealed build environment has no [zarith], so RSA and the ring
    signature run on this module: little-endian arrays of 31-bit limbs, with
    schoolbook and Karatsuba multiplication, Knuth Algorithm-D division,
    square-and-multiply modular exponentiation, and binary extended GCD.

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
(** Modular exponentiation.  Odd moduli take the fast path: Montgomery
    representation with word-by-word CIOS multiplication, plain binary
    exponentiation for exponents of at most 32 bits (e = 65537) and
    fixed-window (w=4) exponentiation above that.  Even moduli fall back to {!mod_pow_naive}.
    Both paths return identical values — the differential test battery
    asserts it on random inputs.
    @raise Division_by_zero if [modulus] is zero. *)

val mod_pow_naive : base:t -> exp:t -> modulus:t -> t
(** The original square-and-multiply implementation, one Knuth division per
    step.  Retained deliberately as the test oracle for the Montgomery fast
    path; like the fast path it is {b not constant-time} and must not be
    treated as side-channel hardened.
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
