(** Access control policies α (§2.2).

    "Let V be the set of vertices in the route-flow graph ... and let N be
    the set of participating networks.  A function
    α : N × V → {TRUE, FALSE} expresses which networks are allowed to see
    which parts of the graph."

    §3.7 refines vertex visibility into three independently-disclosable
    components: structural predecessors, structural successors, and the
    payload (route value or operator type). *)

type component = Preds | Succs | Payload

type t

val deny_all : t

val allow : t -> viewer:Pvr_bgp.Asn.t -> Pvr_rfg.Rfg.vertex_id -> t
(** Grant a viewer all three components of a vertex. *)

val allow_component :
  t -> viewer:Pvr_bgp.Asn.t -> Pvr_rfg.Rfg.vertex_id -> component -> t

val permits :
  t -> viewer:Pvr_bgp.Asn.t -> Pvr_rfg.Rfg.vertex_id -> component -> bool

val permits_vertex : t -> viewer:Pvr_bgp.Asn.t -> Pvr_rfg.Rfg.vertex_id -> bool
(** All three components allowed (or the vertex is allowed to everyone). *)

val figure1 :
  beneficiary:Pvr_bgp.Asn.t -> providers:Pvr_bgp.Asn.t list -> t
(** The §3 example policy: α(N_i, r_i) = α(B, r_o) = TRUE,
    α(n, min) = TRUE for all n, FALSE otherwise — using the
    {!Pvr_rfg.Promise} vertex naming (["r:ASi"], ["out:ASb"], ["op:min"]). *)

val for_promise :
  Pvr_rfg.Promise.t ->
  beneficiary:Pvr_bgp.Asn.t ->
  neighbors:Pvr_bgp.Asn.t list ->
  t
(** The minimal α under which the given promise is verifiable (§4 "minimum
    access"): every involved neighbor sees its own input variable and the
    top-level operator(s); the beneficiary sees the output and the
    operators. *)
