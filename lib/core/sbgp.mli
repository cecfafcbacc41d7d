(** S-BGP-style route attestations (Kent, Lynn, Seo 2000).

    The paper builds on S-BGP for its baseline integrity: "Secure variants
    of BGP, such as S-BGP, have been proposed as mechanisms for ISPs to
    check that a routing announcement does correspond to the claimed path
    and destination" — PVR then adds verification of the {e decision}
    process on top.  This module supplies that baseline: a chain of
    attestations, one per AS on the path, each signing the prefix, the path
    so far, and the neighbor the announcement is being passed to, so a
    received route of path [v_n .. v_1 origin] can be validated end to
    end.

    The single-hop provenance inside {!Wire.export} is the degenerate chain
    of length one; {!Proto_common.export_provenance} can be hardened
    with {!verify} where full chains are available. *)

module Bgp = Pvr_bgp

type attestation = {
  att_prefix : Bgp.Prefix.t;
  att_path : Bgp.Asn.t list;
      (** the path as it leaves the attester: attester first, origin last *)
  att_to : Bgp.Asn.t;  (** the neighbor being given the route *)
}

type chain = attestation Wire.signed list
(** Origin's attestation last, the latest hop's first — same orientation as
    {!Bgp.Route.t.as_path}. *)

val encode_attestation : attestation -> string

val originate :
  Keyring.t -> origin:Bgp.Asn.t -> prefix:Bgp.Prefix.t -> to_:Bgp.Asn.t -> chain
(** The origin's initial attestation: path [\[origin\]]. *)

val extend :
  Keyring.t -> me:Bgp.Asn.t -> to_:Bgp.Asn.t -> chain -> (chain, string) result
(** [me] received the chain, prepends itself, and attests towards [to_].
    Fails (with a reason) if the existing chain does not verify as having
    been addressed to [me]. *)

val verify :
  Keyring.t -> prefix:Bgp.Prefix.t -> path:Bgp.Asn.t list -> to_:Bgp.Asn.t ->
  chain -> bool
(** Does the chain prove that [path] (announcer first) for [prefix] was
    legitimately propagated hop by hop and finally addressed to [to_]?
    Checks every signature, the path telescoping (each attester's path is
    its suffix of [path]), and every hop's recipient being the next
    attester. *)

val chain_route : Keyring.t -> Bgp.Route.t -> to_:Bgp.Asn.t -> chain
(** Build the full chain for a route whose every path AS is in the keyring
    (testing/simulation helper: in reality each AS signs its own hop). *)
