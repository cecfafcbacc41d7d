(** The minimum-operator protocol (§3.3 and Figure 1).

    A promises B to export the shortest route among those provided by
    N_1..N_k.  On top of the two existential conditions, condition 3: each
    providing N_i verifies that the exported route is not longer than its
    own.

    A computes k bits b_1..b_k with b_i = 1 iff at least one input route has
    path length ≤ i, commits to each bit separately, and the commitments
    are gossiped.  A then reveals
    - to each providing N_i: the opening of b_{|r_i|} (which must be 1 —
      "clearly, the chosen route cannot be longer than N_i's route");
    - to B: {e all} bit openings, plus the signed export with provenance.

    B checks (a) some bit set ⟹ a properly signed route arrived, (b) bit
    monotonicity, and — implied by §3.3 and necessary for minimality — (c)
    the exported route's length L satisfies b_L = 1 and b_i = 0 for every
    i < L.  A violation of (c) with b_i = 1 yields self-contained
    {!Evidence.Nonminimal_export} evidence; b_L = 0 yields
    {!Evidence.False_bit} with the provenance announcement as witness. *)

open Proto_common

type prover_output = {
  commit : Wire.commit Wire.signed;
  neighbor_disclosures : (Pvr_bgp.Asn.t * neighbor_disclosure) list;
  beneficiary_disclosure : beneficiary_disclosure;
  inputs : Wire.announce Wire.signed list;
      (** the admitted inputs: validly signed and within [max_path_len] *)
}

val scheme : string
(** ["min"]. *)

val default_max_path_len : int
(** 32 — "Suppose the maximum AS-path length at A is k" (§3.3).  Real BGP
    paths essentially never exceed this. *)

val prove :
  ?max_path_len:int ->
  Pvr_crypto.Drbg.t ->
  Keyring.t ->
  prover:Pvr_bgp.Asn.t ->
  beneficiary:Pvr_bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  inputs:Wire.announce Wire.signed list ->
  prover_output
(** Honest A.  Inputs whose path exceeds [max_path_len] are ignored (they
    could never win the minimum among admissible routes anyway, and the bit
    vector cannot express them). *)

val check_neighbor :
  Keyring.t ->
  me:Pvr_bgp.Asn.t ->
  my_announce:Wire.announce Wire.signed ->
  commit:Wire.commit Wire.signed ->
  disclosure:neighbor_disclosure option ->
  Evidence.t list
(** N_i: the disclosed opening must be for index |r_i| and show bit 1. *)

val check_beneficiary :
  Keyring.t ->
  me:Pvr_bgp.Asn.t ->
  commit:Wire.commit Wire.signed ->
  disclosure:beneficiary_disclosure ->
  Evidence.t list
