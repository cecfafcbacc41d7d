(** Routing information bases for one AS: Adj-RIB-In (per neighbor,
    post-import-policy), Loc-RIB (best routes), Adj-RIB-Out (per neighbor,
    post-export-policy).

    Representation: the neighbors are fixed at creation and sorted by ASN;
    the neighbor at index [i] of {!neighbors} is {e slot} [i].  Each prefix
    the RIB has held is one mutable {!entry} carrying the best route and
    the Adj-RIB-In and Adj-RIB-Out routes in arrays indexed by slot, so a
    write is an array store and the simulator reaches an entry without a
    map lookup.  Entries are created on first use and never removed; an
    entry holding no route reads exactly like an absent prefix, so every
    function below depends on RIB contents only. *)

type t

type entry = {
  prefix : Prefix.t;
  label : string;  (** ["p:<prefix>"], the entry's label in {!digest} *)
  mutable best : Route.t option;  (** Loc-RIB *)
  adj_in : Route.t option array;  (** by slot; [None] = nothing received *)
  adj_out : Route.t option array;  (** by slot; [None] = nothing sent *)
  mutable dirty : bool;
      (** [digest] is stale: set by {!mark} on a write, cleared when
          {!digest} rehashes the entry *)
  mutable digest : string;
      (** the entry's digest as of the last {!digest} of its RIB *)
}
(** What the RIB holds for one prefix.  {!Simulator} writes the route
    fields directly and marks ({!mark}) every entry it writes; other
    writers go through the setters below, which mark. *)

val create : Asn.t array -> t
(** A RIB for an AS with these neighbors (in any order; they are sorted
    into slots).  @raise Invalid_argument on a repeated neighbor. *)

val neighbors : t -> Asn.t array
(** The neighbors in slot order (ascending ASN).  Do not mutate. *)

val slot : t -> Asn.t -> int
(** The neighbor's slot, or [-1] when it is not a neighbor. *)

val entry : t -> Prefix.t -> entry
(** The prefix's entry, created empty on first use. *)

val set_in : t -> neighbor:Asn.t -> Prefix.t -> Route.t option -> unit
(** Record the latest route from a neighbor for a prefix ([None] =
    withdrawn).  @raise Invalid_argument when [neighbor] is not one. *)

val get_in : t -> neighbor:Asn.t -> Prefix.t -> Route.t option

val candidates : t -> Prefix.t -> Route.t list
(** All Adj-RIB-In routes for the prefix (one per neighbor at most), in
    descending ASN order of the neighbor they came from. *)

val set_best : t -> Prefix.t -> Route.t option -> unit
val get_best : t -> Prefix.t -> Route.t option

val set_out : t -> neighbor:Asn.t -> Prefix.t -> Route.t option -> unit
(** @raise Invalid_argument when [neighbor] is not one. *)

val get_out : t -> neighbor:Asn.t -> Prefix.t -> Route.t option

val prefixes : t -> Prefix.t list
(** Every prefix with any Adj-RIB-In or Loc-RIB state, sorted, no
    duplicates. *)

val mark : t -> entry -> unit
(** Note that the entry's routes changed: its digest and the RIB's are
    recomputed by the next {!digest}. *)

val digest : t -> string
(** The AS digest: {!Pvr_crypto.Sha256.digest_parts} over ["p:<prefix>"]
    and the entry digest of every entry holding anything, in
    [Prefix.compare] order, or [""] when no entry holds anything.  An
    entry digest is SHA-256 over ["b|"] and the best route, then per
    filled slot ["i|AS<n>|"] (Adj-RIB-In) or ["o|AS<n>|"] (Adj-RIB-Out)
    and the route, each route as its {!Route.encode} bytes and a
    newline.  A pure function of RIB contents.  Rehashes only entries
    marked since the last call (counted in ["bgp.rib.rehashed"]), each
    route written in place ({!Route.absorb}), and costs nothing when none
    was. *)

val digest_full : t -> string
(** {!digest} recomputed from every entry, reading and clearing no
    cached digest: the oracle {!digest} is tested against. *)
