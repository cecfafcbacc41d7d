(** Deterministic fault-injecting message transport.

    The paper's threat model (§3) assumes "an unknown subset of the
    networks is Byzantine and can behave arbitrarily" — and the network
    between them is no friendlier.  This module simulates a
    message-passing transport whose per-link faults (drop, duplicate,
    delay, reorder, partition) are drawn from a seeded
    {!Pvr_crypto.Drbg}, so a whole faulty round is exactly reproducible
    from its seed: same seed, same byte-identical outcome.

    Time is a tick counter.  A send enqueues the message with a delivery
    tick at least one ahead of now; {!tick} advances the clock and hands
    back what arrives.  Nothing here knows about PVR messages — ['m] is
    whatever the protocol layer speaks — so the same transport carries
    gossip digests, protocol phases, and test traffic.

    Fault decisions are made {e at send time}, in send order, each
    consuming DRBG draws only when the corresponding fault rate is
    non-zero; a [perfect] network never touches the generator. *)

type policy = {
  drop : float;  (** per-message loss probability, [0..1] *)
  duplicate : float;
      (** probability a delivered message is delivered twice (the copy
          draws its own delay) *)
  delay_min : int;  (** extra delivery delay, uniform in [delay_min..delay_max] ticks *)
  delay_max : int;
  reorder : bool;
      (** shuffle same-tick deliveries instead of preserving send order *)
  partition : bool;  (** link blocked: every send is dropped... *)
  heal_at : int option;
      (** ...until this tick, if given ([None] = partitioned forever) *)
}

val perfect : policy
(** No faults: delivery next tick, in send order. *)

val faulty :
  ?drop:float ->
  ?duplicate:float ->
  ?delay_min:int ->
  ?delay_max:int ->
  ?reorder:bool ->
  ?partition:bool ->
  ?heal_at:int ->
  unit ->
  policy
(** [perfect] with the given fields overridden. *)

type stats = {
  mutable sends : int;  (** transmissions offered to the network *)
  mutable drops : int;  (** lost to the random-loss gate *)
  mutable duplicates : int;  (** extra copies enqueued *)
  mutable deliveries : int;  (** messages handed to receivers *)
  mutable partition_drops : int;  (** lost to a partitioned link *)
}

type 'm t

val create :
  ?policy:policy ->
  ?links:((Pvr_bgp.Asn.t * Pvr_bgp.Asn.t) * policy) list ->
  rng:Pvr_crypto.Drbg.t ->
  unit ->
  'm t
(** [links] overrides the default [policy] per unordered endpoint pair. *)

val now : _ t -> int
val pending : _ t -> int
(** Messages in flight. *)

val stats : _ t -> stats
(** Live per-instance counters (also mirrored into the [net.*] metrics of
    {!Pvr_obs} when enabled). *)

val send : 'm t -> src:Pvr_bgp.Asn.t -> dst:Pvr_bgp.Asn.t -> 'm -> unit

val tick : 'm t -> (Pvr_bgp.Asn.t * Pvr_bgp.Asn.t * 'm) list
(** Advance the clock one tick and return the [(src, dst, msg)] triples
    delivered at the new time. *)

val run :
  ?max_ticks:int ->
  'm t ->
  handler:(src:Pvr_bgp.Asn.t -> dst:Pvr_bgp.Asn.t -> 'm -> unit) ->
  unit ->
  int
(** Tick until nothing is in flight (the handler may send more) or
    [max_ticks] (default 1000) elapse; returns the ticks consumed. *)

(** {2 Bounded-retry reliable channel}

    Stop-and-repeat ARQ over a faulty net: each data message carries a
    sequence number, receivers ack it, and the sender retransmits every
    [interval] ticks until acked or the [budget] of retransmissions is
    spent.  Ack loss causes duplicate data deliveries — receivers must be
    idempotent, which is exactly the property the fault suite locks in. *)
module Reliable : sig
  type 'm envelope

  type 'm conn

  val create : ?interval:int -> ?budget:int -> 'm envelope t -> 'm conn
  (** [interval] defaults to 2 ticks, [budget] to 3 retransmissions. *)

  val net : 'm conn -> 'm envelope t

  val send :
    'm conn -> src:Pvr_bgp.Asn.t -> dst:Pvr_bgp.Asn.t -> 'm -> unit

  val run :
    ?max_ticks:int ->
    'm conn ->
    handler:(src:Pvr_bgp.Asn.t -> dst:Pvr_bgp.Asn.t -> 'm -> unit) ->
    unit ->
    int
  (** Tick until every outstanding send is acked or has exhausted its
      budget and nothing is in flight.  Delivers data (never acks) to
      [handler]; the handler may itself {!send}. *)

  val acked : 'm conn -> src:Pvr_bgp.Asn.t -> dst:Pvr_bgp.Asn.t -> 'm -> bool
  (** Was some send of this exact [(src, dst, msg)] triple acked?  Lets a
      sender distinguish "confirmed received" from "gave up" — the basis
      for not accusing a party that may simply never have heard you. *)

  val data_sends : _ conn -> int
  (** Data transmissions including retransmissions (acks not counted). *)

  val retries : _ conn -> int
  (** Retransmissions performed (mirrored to the [net.retries] metric). *)

  val failures : _ conn -> int
  (** Sends abandoned after the budget (mirrored to [net.timeouts]). *)
end

(** {2 Byte mangling}

    What a hostile or broken link does to encoded messages: truncation,
    bit flips, splices, and length-prefix garbling.  Deterministic from
    the DRBG; used by the decoder-robustness properties ("malformed input
    yields [None], never an exception"). *)
module Fuzz : sig
  val mangle : Pvr_crypto.Drbg.t -> string -> string
  (** One to four stacked random mutations of the input bytes. *)
end
