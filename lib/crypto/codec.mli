(** The one binary codec under every decoder of untrusted bytes: wire
    statements, evidence, proofs, ring signatures, journal and snapshot
    records, spill pages and serve frames.

    Fields are big-endian u32s, length-prefixed strings ([u32 len ‖ bytes])
    and booleans (one byte, [0x00] or [0x01]).

    {b List format.}  A list of strings is encoded as

    {v  u32 count ‖ (u32 len ‖ bytes){count}  v}

    by {!encode_list}; it is injective, so two distinct lists never encode
    equally, and it is what statements are hashed and signed over.  The
    readers {!list} and {!decode_list} are its only inverse:
    each call site checks its own constraints on the items (arity, fixed
    widths) after the generic read.

    {b Errors.}  Every reader is bounds-checked and raises {!Malformed} —
    the only error it raises — on a truncated, oversized or otherwise
    invalid field.  Decoders built on the reader raise {!Malformed} for
    their own field checks too, and catch it at one {!decode} boundary, so
    no exception escapes a public decoder. *)

exception Malformed of string

val malformed : string -> 'a
(** [malformed what] raises [Malformed what]. *)

(** {2 Writing} *)

val u32 : Buffer.t -> int -> unit
(** @raise Invalid_argument outside [0, 2^32). *)

val str : Buffer.t -> string -> unit
val bool_ : Buffer.t -> bool -> unit

val encode_list : string list -> string
(** The list format above. *)

(** {2 Reading} *)

type reader

val reader : string -> reader
val get_u32 : reader -> int
val get_str : reader -> string
val get_bool : reader -> bool

val decode : string -> (reader -> 'a) -> ('a, string) result
(** Run a parser over a payload, turning {!Malformed} (and any leftover
    trailing bytes) into [Error]. *)

val decode_list : string -> (string list -> 'a) -> 'a option
(** [decode_list s f] reads all of [s] as one list and maps it with [f]:
    the {!decode} boundary of the list-shaped decoders, [None] if the list
    is malformed or [f] raises {!Malformed}. *)

val list : string -> string list
(** [list s] reads all of [s] as one list: for a nested list item inside a
    decoder.  @raise Malformed *)

val u32_item : string -> int
(** A list item that is exactly one big-endian u32.  @raise Malformed *)
