(** IPv4 CIDR prefixes. *)

type t = private { addr : int; len : int }
(** [addr] is the 32-bit network address with host bits zeroed. *)

val make : addr:int -> len:int -> t
(** Host bits are masked off. @raise Invalid_argument unless
    [0 <= len <= 32]. *)

val of_string : string -> t
(** Parse ["10.0.0.0/8"].  @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Dotted-quad text, ["10.0.0.0/8"]. *)

val text_length : t -> int
(** [String.length (to_string p)]. *)

val write_text : t -> Bytes.t -> int -> int
(** [write_text p buf off] writes [to_string p] into [buf] at [off] and
    returns the offset just past it.
    @raise Invalid_argument if it does not fit. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

val contains : t -> t -> bool
(** [contains outer inner]: is [inner] a subset of [outer]? *)

val random : Pvr_crypto.Drbg.t -> t
(** A random /8../24 prefix (for workload generation). *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
