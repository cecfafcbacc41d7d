(** Event-driven path-vector (BGP-like) simulation.

    Each AS holds a {!Rib.t}, an import policy per neighbor, and an export
    policy per neighbor; on top of any custom policy the Gao–Rexford export
    rule is enforced when the topology declares relationships.  Messages are
    processed from a FIFO queue until convergence, which is guaranteed for
    sensible policies because paths with loops are dropped on import.

    Representation: ASes are nodes of an array in ascending ASN, and each
    node's neighbors are {e slots} in ascending ASN (the slots of its
    {!Rib.t}).  A node keeps, per slot, the neighbor's relationship, node
    index and {e back slot} (the node's own slot at that neighbor), so a
    queued message is (destination node, destination slot, prefix id,
    route) and its delivery is array stores.  Prefixes get dense ids on
    first origination.

    Ordering contract: a delivery or an origin change re-runs the decision
    process for that (AS, prefix) — {!Decision.compare_standard} in one
    pass, the origin route first and then the Adj-RIB-In in descending
    neighbor ASN, keeping the first route no later one beats — and then
    exports to the neighbors in ascending ASN, queueing a message for each
    neighbor whose Adj-RIB-Out entry changed.  Messages are delivered in
    FIFO order, so message counts, RIBs and every digest over them depend
    only on the topology, the policies and the sequence of calls.

    The simulator supplies the *inputs* to PVR: Adj-RIB-In contents are what
    network A receives from N1..Nk; the exported best routes are what B
    observes.  A hook lets an experiment replace one AS's decision logic
    with a Byzantine variant. *)

type t

val create : Topology.t -> t

val set_import_policy : t -> asn:Asn.t -> neighbor:Asn.t -> Policy.t -> unit
val set_export_policy : t -> asn:Asn.t -> neighbor:Asn.t -> Policy.t -> unit
(** Both default to {!Policy.accept_all}.  @raise Invalid_argument when
    [neighbor] is not linked to [asn]. *)

val set_decision_override :
  t -> asn:Asn.t -> (Prefix.t -> Route.t list -> Route.t option) -> unit
(** Replace the standard decision process at one AS (used to inject
    misbehaviour: the Byzantine A of §3). *)

val set_gao_rexford : t -> bool -> unit
(** Enforce the relationship-based export rule (default [true] when the
    topology has relationship annotations; harmless for Peer-only graphs). *)

val originate : t -> asn:Asn.t -> Prefix.t -> unit
(** Inject a locally-originated prefix and enqueue the announcements. *)

val withdraw_origin : t -> asn:Asn.t -> Prefix.t -> unit

val run : ?max_messages:int -> t -> int
(** Process queued messages to convergence; returns the number of messages
    processed.  @raise Failure if [max_messages] (default 1_000_000) is
    exceeded, which indicates a policy dispute (e.g. BAD GADGET). *)

val rib : t -> Asn.t -> Rib.t
(** The RIB of an AS (live reference). *)

val best_route : t -> asn:Asn.t -> Prefix.t -> Route.t option

val received_routes : t -> asn:Asn.t -> Prefix.t -> Route.t list
(** Adj-RIB-In candidates at an AS (PVR's input variables r_1..r_k), in
    descending neighbor ASN: the order a decision override sees them in,
    after the origin route when the AS originates the prefix. *)

val exported_route : t -> asn:Asn.t -> neighbor:Asn.t -> Prefix.t -> Route.t option
(** What [asn] last sent [neighbor] (PVR's output variable r_o). *)

val set_log_enabled : t -> bool -> unit
(** Does nothing: the simulator keeps no message log.  Kept only because
    [perfbench/pvrbench.ml] still switches the log off. *)
