(** Dense binary Merkle hash trees (Merkle 1980).

    Used for the Merkle-committed bit vector ([Bitvec], experiment
    E5b).  §3.8 batch signing uses its own compact
    tree with salted leaves ([Pvr.Wire.sign_batch]), whose sibling digests
    must not let a verifier confirm a guessed route. *)

type t

val build : string list -> t
(** Build over the given leaf values, in order.  The list may be empty. *)

val root : t -> string
(** 32-byte root digest.  The root of the empty tree is a distinguished
    constant. *)

val size : t -> int
(** Number of leaves. *)

type proof = { index : int; path : (string * [ `Left | `Right ]) list }
(** Sibling digests from the leaf up; the tag says on which side the sibling
    sits at that level. *)

val prove : t -> int -> proof
(** Authentication path for leaf [index]. @raise Invalid_argument if out of
    range. *)

val verify : root:string -> leaf:string -> proof -> bool
(** Check that [leaf] is the [proof.index]-th leaf of the tree with the
    given root. *)

val encode_proof : proof -> string
val decode_proof : string -> proof option
