(** Bitstrings identifying route-flow-graph vertices (§3.6).

    The paper requires every rule and variable to be assigned a bitstring
    such that the resulting set is prefix-free ("no valid bitstring is a
    prefix of another valid bitstring"), because the Merkle hash tree hangs
    each vertex at the node addressed by its bitstring.

    Two encodings are provided:
    - {!of_id}: a fixed-width (128-bit) path derived by hashing an
      arbitrary identifier.  Same-width strings are trivially prefix-free,
      and hashing hides how many vertices exist near a disclosed one.
    - explicit bitstrings built with {!of_bools} for tests and for the
      paper's [rule(x)] / [var(v)] style encodings. *)

type t
(** An immutable sequence of bits. *)

val empty : t
val length : t -> int
val get : t -> int -> bool
val append_bit : t -> bool -> t
val of_bools : bool list -> t

val of_int_bits : int -> len:int -> t
(** The first [len] bits of a 32-bit integer, most-significant first —
    the natural bit path of an IPv4 CIDR prefix (addr, len), under which
    prefix containment is exactly {!is_prefix}.
    @raise Invalid_argument unless [0 <= len <= 32]. *)

val of_string : string -> t
(** Parse a string of ['0']/['1'] characters. @raise Invalid_argument. *)

val to_string : t -> string
(** ['0']/['1'] rendering. *)

val of_id : string -> t
(** The canonical 128-bit vertex path: the first 16 bytes of
    SHA-256("vertex-path:" ^ id), most-significant bit first. *)

val id_width : int
(** Bit width of {!of_id} results (128). *)

val is_prefix : t -> t -> bool
(** [is_prefix a b]: is [a] a (non-strict) prefix of [b]? *)

val prefix_free : t list -> bool
(** Is the set prefix-free (no element a strict or equal prefix of a
    different element; duplicates violate it)? *)

val equal : t -> t -> bool
