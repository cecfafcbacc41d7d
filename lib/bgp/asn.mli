(** Autonomous-system numbers. *)

type t = private int

val of_int : int -> t
(** @raise Invalid_argument on negative numbers. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
(** Prints as ["AS64512"]. *)

val to_string : t -> string

val find_sorted : t array -> t -> int
(** [find_sorted a x]: the index of [x] in [a], sorted ascending, or [-1]
    when absent (binary search). *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
