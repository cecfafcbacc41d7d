(** Gao-style AS-relationship inference from observed AS paths.

    §1 of the paper: "it is possible ... to classify AS business
    relationships on the basis of publicly available data [5, 7].  These
    inferences go beyond what was intended in publishing that data."

    This module is the *attacker's* tool: given the AS paths visible at
    vantage points, infer who is whose provider.  Experiment E7 uses it to
    quantify how much more a full-disclosure verification scheme (NetReview
    baseline) leaks than PVR: the more routing state is revealed, the more
    accurately relationships are recovered.

    The algorithm is the degree-based heuristic of Gao (2001), simplified:
    in a valley-free path the highest-degree AS is the top; edges walking up
    to it are customer→provider, edges walking down are provider→customer,
    and the edge at the top (if the plateau has two ASes) is a peering. *)

open Pvr_bgp

type inferred = (Asn.t * Asn.t * Relationship.t) list
(** [(a, b, rel)]: [rel] is what [b] is inferred to be to [a]. *)

val infer : degree:(Asn.t -> int) -> Asn.t list list -> inferred
(** Infer from a set of AS paths (each nearest-AS-first, as in
    {!Route.t.as_path}). *)

val accuracy : truth:Topology.t -> inferred -> float
(** Fraction of inferred edges whose relationship matches the topology
    (edges absent from the topology are counted as wrong); 1.0 when every
    inferred edge is right, 0.0 for an empty inference. *)
