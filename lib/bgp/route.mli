(** BGP routes: a prefix plus the path attributes the decision process and
    the PVR operators inspect. *)

type origin = Igp | Egp | Incomplete

type community = int * int
(** Classic 32-bit community, written [asn:value]. *)

type t = {
  prefix : Prefix.t;
  as_path : Asn.t list;       (** nearest AS first; the origin AS is last *)
  next_hop : Asn.t;           (** the neighbor the route was learned from *)
  local_pref : int;
  med : int;
  origin : origin;
  communities : community list;
}

val originate : asn:Asn.t -> Prefix.t -> t
(** The route an origin AS injects for its own prefix: empty-to-self path
    semantics, [as_path = [asn]], default attributes. *)

val path_length : t -> int

val has_loop : Asn.t -> t -> bool
(** Would importing this route at the given AS create an AS-path loop? *)

val through : Asn.t -> t -> bool
(** Does the AS path traverse the given AS? *)

val prepend : Asn.t -> t -> t
(** [prepend asn r] is the route as announced by [asn]: path extended at the
    front.  [next_hop] becomes [asn]. *)

val with_local_pref : int -> t -> t
val add_community : community -> t -> t
val has_community : community -> t -> bool
val strip_private_attrs : t -> t
(** What actually crosses an AS boundary: local-pref is meaningless to the
    neighbor and reset to the default. *)

val default_local_pref : int

val encode : t -> string
(** Injective byte encoding, used for signing, commitments and every
    digest of routes.  Its bytes are a {!Pvr_crypto.Codec.encode_list} of
    seven items: the {!Prefix.to_string} text, the list of path ASNs, next
    hop, local-pref, MED, origin code ([Igp] 0, [Egp] 1, [Incomplete] 2),
    and the list of communities (each [a] and [v] in one item); every
    integer is 4 big-endian bytes of its low 32 bits. *)

val encoded_length : t -> int
(** [String.length (encode r)], computed without encoding. *)

val write : t -> Bytes.t -> int -> int
(** [write r buf off] writes [encode r]'s bytes into [buf] at [off] and
    returns the offset just past them.  Allocates nothing.
    @raise Invalid_argument unless they fit; [buf] is then untouched. *)

val absorb : Pvr_crypto.Sha256.ctx -> t -> unit
(** [absorb ctx r] is [Sha256.update ctx (encode r)], through a scratch
    buffer of the calling domain instead of a fresh string. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
