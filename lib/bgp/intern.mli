(** Hash-consed interning of AS paths and routes.

    Internet-scale workloads move the same few thousand distinct routes
    through millions of RIB writes, equality checks and digest encodings
    per epoch.  With interning enabled, every structurally-equal path and
    route maps to a single canonical representative carrying a compact
    dense integer id; {!Route.equal}'s physical fast path then settles
    comparisons in one pointer check, storage is shared, and the injective
    {!Route.encode} bytes are memoized per canonical route — the dominant
    allocation on the engine's per-epoch snapshot-digest path.

    The interner is {e semantically invisible}: canonical routes are
    structurally equal to their inputs, so every decision, RIB digest and
    engine report digest is byte-identical with interning on or off (the
    differential-oracle test suite enforces exactly this).

    Lookups run against {e per-domain arenas} (domain-local storage), so
    hits are lock-free; misses create provisional canonicals logged for
    {!flush}, the canonicalizing merge into the mutex-guarded global
    tables that the engine's pool workers run before every epoch barrier.
    Every function may be called from any domain.  The toggle is global
    and {e off by default}; while disabled every function is the identity
    and {!encode} is plain [Route.encode]. *)

val set_enabled : bool -> unit
(** Turn interning on or off (default: off).  Turning it {e off} also
    clears the tables, so flipping modes never leaks one mode's canonical
    storage into the other's measurements. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop every interned path, route and memoized encoding (the toggle is
    left as is). *)

val path : Asn.t list -> Asn.t list
(** Canonical representative of the path.  Identity while disabled. *)

val route : Route.t -> Route.t
(** Canonical representative of the route; its [as_path] is itself
    interned.  Identity while disabled. *)

val flush : unit -> unit
(** Merge the calling domain's arena log into the global canonical
    tables, assigning dense ids first-merged-wins; when another domain
    merged an equal value first the arena is re-pointed at the winning
    canonical so future hits share storage.  Pool workers call this on
    their own domain before signalling the epoch barrier; the read APIs
    below call it implicitly.  Cheap no-op when nothing is pending. *)

val route_id : Route.t -> int option
(** Dense id of an already-interned route; [None] if never interned or
    while disabled.  Flushes the calling domain's arena first. *)

val encode : Route.t -> string
(** [Route.encode r], memoized per canonical route while interning is
    enabled — byte-identical to [Route.encode] in both modes. *)

type stats = { live_paths : int; live_routes : int; memoized_encodes : int }

val stats : unit -> stats
(** Current table sizes (also published as gauges [intern.paths.live] and
    [intern.routes.live] when {!Pvr_obs} is enabled). *)
