(** One evidence-plane row: the durable, query-addressable residue of a
    verification round at a (prover, promise-vertex, epoch) triple.

    Rows carry only configuration-invariant facts — verdicts, behaviour,
    evidence kinds, leakage counts — never caches, routes or network
    transcripts, so the same seed produces byte-identical rows for any
    jobs/cache setting and across crash/recover boundaries. *)

module Bgp = Pvr_bgp

type t = {
  r_epoch : int;  (** engine epoch the round ran in *)
  r_prover : int;  (** ASN as an int (codec-friendly) *)
  r_addr : int;  (** prefix network address *)
  r_len : int;  (** prefix length *)
  r_beneficiary : int;
  r_providers : int list;  (** sorted by ASN, as the engine reports them *)
  r_behaviour : string;  (** {!Pvr.Adversary.to_string} of the planned
                             behaviour *)
  r_detected : bool;
  r_convicted : bool;
  r_evidence : int;  (** pieces of evidence raised *)
  r_kinds : string list;  (** sorted {!Pvr.Evidence.kind} tags *)
  r_leaked : int;  (** total disclosed bits ({!Pvr.Leakage} convention) *)
  r_excess : int;  (** audited bits beyond plain-BGP baselines *)
}

val prover : t -> Bgp.Asn.t
val beneficiary : t -> Bgp.Asn.t
val providers : t -> Bgp.Asn.t list
val prefix : t -> Bgp.Prefix.t

val verdict : t -> string
(** ["guilty"], ["detected"] (raised but not convicted) or ["ok"]. *)

val compare : t -> t -> int
(** Journal order: (epoch, prover, prefix). *)

val equal : t -> t -> bool

val encode : Buffer.t -> t -> unit
val read : Pvr_crypto.Codec.reader -> t
(** @raise Pvr_crypto.Codec.Malformed on truncated input. *)

val encode_body : Buffer.t -> t -> unit
(** Every field but [r_epoch], in declaration order: {!encode} is the
    epoch followed by the body.  The engine's vertex-state records embed
    the same body. *)

val read_body : epoch:int -> Pvr_crypto.Codec.reader -> t
(** Inverse of {!encode_body}.  @raise Pvr_crypto.Codec.Malformed *)

val to_json : t -> Pvr_obs.Json.t
(** Fixed field order — byte-stable across runs and recoveries. *)
