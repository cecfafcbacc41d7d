(** Hash-consed interning of AS paths and routes.

    Internet-scale workloads move the same few thousand distinct routes
    through many RIB writes, equality checks and digest encodings per
    epoch.  With interning enabled, every structurally-equal path and
    route maps to a single canonical representative; {!Route.equal}'s
    physical fast path then settles comparisons in one pointer check,
    storage is shared, and the injective {!Route.encode} bytes are
    memoized per canonical route — the dominant allocation on the
    engine's per-epoch snapshot-digest path.

    The interner is {e semantically invisible}: canonical routes are
    structurally equal to their inputs, so every decision, RIB digest and
    engine report digest is byte-identical with interning on or off (the
    differential-oracle test suite enforces exactly this).

    The toggle and the tables belong to the {e calling domain}: every
    function below reads or changes only that domain's state, so two
    domains never share a canonical and one never clears the other's
    tables.  A domain's toggle is {e off} until it calls {!set_enabled};
    while disabled every function is the identity and {!encode} is plain
    [Route.encode]. *)

val set_enabled : bool -> unit
(** Turn interning on or off for the calling domain (default: off).
    Turning it {e off} also clears that domain's tables, so flipping modes
    never leaks one mode's canonical storage into the other's
    measurements. *)

val enabled : unit -> bool
(** The calling domain's toggle. *)

val reset : unit -> unit
(** Drop the calling domain's interned paths, routes and memoized
    encodings (the toggle is left as is). *)

val path : Asn.t list -> Asn.t list
(** Canonical representative of the path.  Identity while disabled. *)

val route : Route.t -> Route.t
(** Canonical representative of the route; its [as_path] is itself
    interned.  Identity while disabled. *)

val encode : Route.t -> string
(** [Route.encode r], memoized per canonical route while interning is
    enabled — byte-identical to [Route.encode] in both modes. *)

type stats = { live_paths : int; live_routes : int; memoized_encodes : int }

val stats : unit -> stats
(** The calling domain's table sizes. *)
