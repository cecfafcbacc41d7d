(** Gossip among A's neighbors about A's commitments (§3.2/§3.6).

    "A's neighbors can gossip about c to ensure that they all have the same
    view of b" — equivocation (sending different commitments to different
    neighbors) is the one attack commitments alone cannot stop, and the
    gossip round turns it into hard evidence: two valid signatures by A on
    conflicting commitment messages for the same epoch, prefix, and scheme.

    The exchange is modelled on an explicit gossip graph so experiment E8
    can ablate the fanout (full clique vs. ring): equivocation towards a
    pair of neighbors that never exchange digests goes undetected. *)

type t

val create : Keyring.t -> t

val receive :
  t ->
  holder:Pvr_bgp.Asn.t ->
  Wire.commit Wire.signed ->
  Evidence.t option
(** [holder] records a commitment it received directly from the signer.
    Returns equivocation evidence immediately if it conflicts with one the
    holder already knows.  Invalidly-signed commitments are ignored.
    Commitments are hiding, so gossip contributes nothing to the holder's
    leakage view. *)

val exchange : t -> Pvr_bgp.Asn.t -> Pvr_bgp.Asn.t -> Evidence.t list
(** One gossip edge: the two parties compare everything they hold and both
    learn the union.  Returns any equivocation uncovered. *)

type digest = Wire.commit Wire.signed list
(** What one gossip edge transmits: every commitment the sender holds. *)

val run_round :
  ?net:digest Pvr_net.t ->
  t ->
  edges:(Pvr_bgp.Asn.t * Pvr_bgp.Asn.t) list ->
  Evidence.t list
(** One synchronous gossip round: every edge exchanges the views its two
    endpoints held when the round {e started}, so information travels one
    hop per round (an equivocation split across distant ring members needs
    several rounds to surface, which is what E8 ablates).  The returned
    evidence is deduplicated: a conflicting commitment pair is reported
    once per round no matter how many holders observed it.

    Digests are sent through [net] (default: a fresh perfect channel, under
    which this behaves exactly like a sequential edge walk).  A faulty
    [net] may drop, duplicate, delay, or reorder digests; equivocation
    detection is invariant under duplication and reordering because
    {!receive} is idempotent and conflicts are checked against live
    views. *)

val clique_edges : Pvr_bgp.Asn.t list -> (Pvr_bgp.Asn.t * Pvr_bgp.Asn.t) list
val ring_edges : Pvr_bgp.Asn.t list -> (Pvr_bgp.Asn.t * Pvr_bgp.Asn.t) list

val view :
  t -> holder:Pvr_bgp.Asn.t -> signer:Pvr_bgp.Asn.t -> epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t -> scheme:string -> Wire.commit Wire.signed option
(** The commitment the holder currently accepts for that slot, if any. *)
