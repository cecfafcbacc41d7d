(** Small byte-string helpers shared by the crypto modules.

    All functions operate on immutable [string] values; none of them mutate
    their arguments. *)

val xor : string -> string -> string
(** [xor a b] is the bytewise exclusive-or of [a] and [b].
    @raise Invalid_argument if the lengths differ. *)

val equal_ct : string -> string -> bool
(** Constant-time equality: the running time depends only on the lengths,
    never on the position of the first differing byte. *)

val be32 : int -> string
(** 4-byte big-endian encoding of the low 32 bits of an integer. *)

val le32 : int -> string
(** 4-byte little-endian encoding of the low 32 bits. *)

val read_be32 : string -> int -> int
(** [read_be32 s off] reads a big-endian 32-bit value at byte offset [off]. *)

val read_le32 : string -> int -> int
(** [read_le32 s off] reads a little-endian 32-bit value at offset [off]. *)

val concat : string list -> string
(** Concatenation without separator (alias of [String.concat ""]). *)
