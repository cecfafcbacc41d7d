(** The third party of the Evidence property (§2.3).

    "If an incorrect evaluation is detected in an AS A, then at least one AS
    B can obtain evidence against A that will convince a third party", and
    dually (Accuracy) "A can disprove any evidence that is presented
    against it."

    The judge defines no offence of its own: it convicts by the predicate
    the parties raise evidence by.  Equivocation is two valid, conflicting
    commits for one slot.  The §3.3 and promise-4 offences ([False_bit],
    [Non_monotonic_bits], [Nonminimal_export], [Unsupported_export],
    [Own_vector_mismatch], [Bad_provenance]) hold when the commit's
    signature verifies and {!Proto_min.offence_holds} holds, both under
    one fresh table of verified roots, so a commit and an export under one
    batch root cost one RSA verify.  A graph violation holds when
    {!Proto_graph.offence_holds} holds over its authenticated
    disclosures.

    Omission claims ([Missing_export_claim], [Missing_disclosure_claim])
    cannot be proven by the accuser, so the judge {e challenges} the
    accused to produce the item it allegedly withheld; an honest AS always
    can, a stubborn or lying one is found guilty.  A produced export
    answers a claim when it binds to the commit and the claimant
    ({!Proto_common.export_binds}), carries valid provenance and, under
    the min scheme, is no longer than the lowest bit the claimant saw set.
    Promise 4 (["noshorter"]) owes no beneficiary an export, so an
    omission claim against its commit is [Rejected]. *)

type verdict =
  | Guilty      (** the evidence convinces the judge *)
  | Exonerated  (** the accused disproved the accusation *)
  | Rejected    (** the evidence itself is malformed or unconvincing *)

val verdict_to_string : verdict -> string

type challenge =
  | Produce_export of {
      epoch : Wire.epoch;
      prefix : Pvr_bgp.Prefix.t;
      beneficiary : Pvr_bgp.Asn.t;
    }
      (** "show the signed export you claim to have sent B in this round" *)
  | Produce_opening of {
      epoch : Wire.epoch;
      prefix : Pvr_bgp.Prefix.t;
      scheme : string;
      index : int;
    }
      (** "open commitment [index] of your commit message" *)

type response =
  | Export_response of Wire.export Wire.signed
  | Opening_response of Pvr_crypto.Commitment.opening
  | No_response

val evaluate :
  ?ledger:Leakage.Ledger.ledger ->
  Keyring.t ->
  respond:(accused:Pvr_bgp.Asn.t -> challenge -> response) ->
  Evidence.t ->
  verdict
(** Replay the evidence.  [respond] reaches the accused (experiments wire it
    to the honest prover or to an adversary).  Every signature and opening
    inside the evidence is re-verified from scratch: forged or inconsistent
    evidence yields [Rejected], never [Guilty].

    [ledger] accounts what each challenge response disclosed to the court
    (pseudo-viewer {!Leakage.court}): a decodable opening records its
    threshold bit, a produced export records its route, silence records
    nothing. *)

val evaluate_offline : Keyring.t -> Evidence.t -> verdict
(** Like {!evaluate} with an accused that never responds: omission claims
    against it therefore stick.  Convenient in tests for self-contained
    evidence. *)
