(** Hexadecimal encoding of byte strings. *)

val encode : string -> string
(** Lowercase hex, two characters per input byte. *)

val decode : string -> string
(** Inverse of {!encode}; accepts upper- and lowercase digits.
    @raise Invalid_argument on odd length or non-hex characters. *)
