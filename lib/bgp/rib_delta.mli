(** Incremental, digest-level tracker of the world's RIB state.

    The engine's global RIB digest used to be an O(world) walk over every
    AS's three tables each time it was needed.  This tracker keeps one
    SHA-256 entry digest per (AS, prefix) pair — fed from the simulator's
    dirty-pair set via {!Rib.prefix_entry} — and a per-AS digest cache,
    so refreshing the global digest costs O(dirty pairs + dirty ASes).
    It has no serialized form: the digest it yields is stored in every
    epoch record and checkpoint, and resume rebuilds the tracker by
    replaying the churn stream. *)

type t

val create : unit -> t

val update : t -> asn:Asn.t -> prefix:Prefix.t -> entry:string -> bool
(** Install the canonical entry string ({!Rib.prefix_entry}) for a pair;
    [entry = ""] removes it.  Returns whether the stored digest actually
    changed. *)

val digest : t -> string
(** Global digest: SHA-256 over per-AS digests in ASN order, each per-AS
    digest covering its prefix→digest map in prefix order.  Pure function
    of tracker contents; stale per-AS caches are refreshed lazily. *)
