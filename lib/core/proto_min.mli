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
    {!Evidence.False_bit} with the provenance announcement as witness.

    Each offence of this family, promise 4's included, has one definition,
    {!offence_holds}: the parties raise one only when it holds, and the
    {!Judge} convicts when the commit's signature verifies and it
    holds. *)

open Proto_common

val scheme : string
(** ["min"]. *)

val default_max_path_len : int
(** 32 — "Suppose the maximum AS-path length at A is k" (§3.3).  Real BGP
    paths essentially never exceed this. *)

(** {2 The prover's draft}

    Everything A will send, before anything is signed: the first phase of
    a {!Runner} round, which {!Adversary.perturb} may rewrite. *)

type committed =
  (Pvr_crypto.Commitment.commitment * Pvr_crypto.Commitment.opening) list
(** One commitment per threshold bit b_1..b_k, with its opening. *)

type committer = tag:string -> bool list -> committed
(** Commits to a bit vector: [tag] is [""] for the honest vector, another
    tag for a second vector of the round (a lie), whose nonces are then
    fresh even when it claims the same bits. *)

type provenance =
  | Input of Pvr_bgp.Asn.t  (** that provider's signed announce *)
  | Forged of Wire.announce Wire.signed

type export_plan = Pvr_bgp.Route.t * provenance
(** An export to B before signing: the route and its provenance. *)

type answer =
  | Stonewall  (** A answers no challenge *)
  | Stand_by of export_plan option
      (** A answers with openings of [dr_committed] and this export *)

type draft = {
  dr_keyring : Keyring.t;
  dr_committer : committer;
  dr_prover : Pvr_bgp.Asn.t;
  dr_beneficiary : Pvr_bgp.Asn.t;
  dr_epoch : Wire.epoch;
  dr_prefix : Pvr_bgp.Prefix.t;
  dr_inputs : (Pvr_bgp.Asn.t * Pvr_bgp.Route.t) list;
      (** the admitted inputs, in arrival order *)
  dr_committed : committed;
      (** sent to the providers, each opened at its own route length *)
  dr_committed_b : committed;
      (** sent to B and opened in full; physically [dr_committed] unless A
          equivocates *)
  dr_withheld : Pvr_bgp.Asn.t list;  (** providers denied their opening *)
  dr_export : export_plan option;  (** the export B is sent *)
  dr_answer : answer;  (** what A shows the judge when challenged *)
}

val draft :
  ?max_path_len:int ->
  ?export:Pvr_bgp.Route.t ->
  Keyring.t ->
  committer:committer ->
  prover:Pvr_bgp.Asn.t ->
  beneficiary:Pvr_bgp.Asn.t ->
  epoch:Wire.epoch ->
  prefix:Pvr_bgp.Prefix.t ->
  inputs:(Pvr_bgp.Asn.t * Pvr_bgp.Route.t) list ->
  draft
(** Honest A.  [inputs] must already be admitted (validly signed, at most
    [max_path_len] hops).  A commits to k = [max_path_len] bits, opens
    b_{|r_i|} to each provider and every bit to B, and exports [export]
    (the route its decision process chose) when that is an admitted input,
    else the first shortest input. *)

val commit_claim :
  committer -> tag:string -> k:int -> claimed_shortest:int -> committed
(** Commit to the k bits a shortest input of [claimed_shortest] hops
    implies. *)

val openings : committed -> (int * Pvr_crypto.Commitment.opening) list
(** The openings, indexed from 1. *)

val offence_holds :
  ?verified:Wire.Verified.t * Pvr_bgp.Asn.t -> Keyring.t -> Evidence.t -> bool
(** Whether the evidence proves its offence against the accused, the
    commit's signature aside (the caller's to verify).  Exports must
    {!Proto_common.export_binds} to the commit for their own recipient;
    signatures are checked last, through [verified] when given.

    - [False_bit]: a ["min"] commit's bit [index] opens to 0 although the
      witness is an input A had to admit ({!Proto_common.valid_input}) of
      at most [index] hops.
    - [Non_monotonic_bits]: b_i opens to 1 and b_j to 0 with i < j.
    - [Nonminimal_export]: a bit below the export's length opens to 1.
    - [Unsupported_export]: all k bits open to 0, yet A exported.
    - [Own_vector_mismatch]: a ["noshorter"] commit's bit at the length of
      A's own export opens to 0.
    - [Bad_provenance]: A signed the export, whose
      {!Proto_common.export_provenance} fails.

    Any other evidence: [false]. *)

val check_neighbor :
  ?on_bit:(int -> bool -> unit) ->
  Keyring.t ->
  me:Pvr_bgp.Asn.t ->
  my_announce:Wire.announce Wire.signed ->
  commit:Wire.commit Wire.signed ->
  disclosure:neighbor_disclosure option ->
  Evidence.t list
(** N_i: the disclosed opening must be for index |r_i| and show bit 1.
    [on_bit] sees the bit when the opening verifies, so a caller can account
    it without opening it again. *)

val check_beneficiary :
  ?on_bit:(int -> bool -> unit) ->
  ?verified:Wire.Verified.t ->
  Keyring.t ->
  me:Pvr_bgp.Asn.t ->
  commit:Wire.commit Wire.signed ->
  disclosure:beneficiary_disclosure ->
  Evidence.t list
(** B: all k openings, bit monotonicity, and a minimal, properly signed
    export; an export that does not {!Proto_common.export_binds} to the
    commit and B counts as none.  At the export's length a 0 bit is a
    [False_bit] under ["min"] and an [Own_vector_mismatch] under
    ["noshorter"].  [on_bit] sees every opening that verifies; [verified]
    is B's table of verified signature roots ({!Wire.verify_batch}). *)
