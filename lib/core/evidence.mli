(** Evidence of promise violations (§2.3, §3.4).

    "If an incorrect evaluation is detected in an AS A, then at least one AS
    B can obtain evidence against A that will convince a third party."

    Most constructors are {e self-contained}: they bundle signed statements
    and commitment openings that any third party can replay ({!Judge}).
    The two [*_claim] constructors are accusations of an {e omission}
    (A failed to send something); omissions cannot be proven directly, so
    the judge resolves them by challenging A to produce the missing item —
    which an honest A always can (the Accuracy property). *)

module Bgp = Pvr_bgp
module C = Pvr_crypto

type t =
  | Equivocation of {
      first : Wire.commit Wire.signed;
      second : Wire.commit Wire.signed;
    }
      (** Two valid signatures by the same AS on conflicting commitments for
          the same epoch/prefix/scheme. *)
  | False_bit of {
      commit : Wire.commit Wire.signed;
      index : int;                      (** which b_i (1-based, §3.3) *)
      opening : C.Commitment.opening;   (** opens commitment [index] to 0 *)
      witness : Wire.announce Wire.signed;
          (** N_i's own signed announcement whose path length proves the bit
              had to be 1 *)
    }
  | Non_monotonic_bits of {
      commit : Wire.commit Wire.signed;
      set_index : int;                  (** b_i = 1 *)
      set_opening : C.Commitment.opening;
      unset_index : int;                (** b_j = 0 with j > i *)
      unset_opening : C.Commitment.opening;
    }
  | Nonminimal_export of {
      commit : Wire.commit Wire.signed;
      export : Wire.export Wire.signed;
      index : int;                      (** an index < |exported route| *)
      opening : C.Commitment.opening;   (** ... whose bit opens to 1 *)
    }
      (** A exported a route although it committed that a strictly shorter
          input existed (under promise 4: that it exported a strictly
          shorter route to someone). *)
  | Unsupported_export of {
      commit : Wire.commit Wire.signed;
      export : Wire.export Wire.signed;
      openings : (int * C.Commitment.opening) list;
          (** every bit opened to 0, yet a route was exported *)
    }
  | Bad_provenance of { export : Wire.export Wire.signed }
      (** The export's embedded provenance announcement is missing, its
          signature is invalid, or it does not match the exported route. *)
  | Missing_export_claim of {
      commit : Wire.commit Wire.signed;
      openings : (int * C.Commitment.opening) list;
          (** bits shown to B, at least one = 1, but no route arrived *)
      claimant : Bgp.Asn.t;
    }
  | Missing_disclosure_claim of {
      commit : Wire.commit Wire.signed;
      announce : Wire.announce Wire.signed;
          (** the claimant's own announcement: it provided a route, so A owed
              it an opening (§3.2 condition 2) *)
      claimant : Bgp.Asn.t;
    }
  | Graph_violation of {
      commit : Wire.commit Wire.signed;  (** scheme ["graph"]: root in list *)
      disclosures : graph_disclosure list;
          (** authenticated vertex components against the committed root *)
      offence : graph_offence;
          (** proven when {!Proto_graph.offence_holds} *)
    }
  | Own_vector_mismatch of {
      commit : Wire.commit Wire.signed;  (** scheme ["noshorter"] *)
      my_export : Wire.export Wire.signed;
          (** A's signed export to the claimant, length L *)
      bit_index : int;  (** L *)
      opening : C.Commitment.opening;
          (** opens b_L to 0, although A exported L hops: its vector over
              the shortest export lies (§2 promise 4) *)
    }
  | Timeout of {
      claim : t;
          (** the omission claim the silence substantiates — a [*_claim]
              constructor, never a nested [Timeout] *)
      retries : int;  (** re-requests sent past the first, all unanswered *)
    }
      (** Raised by the {!Pvr_net} transport path when a party stonewalls
          past the bounded-retry budget: the claimant re-requested the
          item [retries] times and never heard back.  Subsumes the ad-hoc
          "refused disclosure" path — over a real (lossy) network, refusal
          and loss are indistinguishable, so both surface as a timeout and
          the {!Judge} settles which it was by challenging the accused. *)

(** An opened I(x) component, as in {!Proto_graph}. *)
and graph_component = { gc_raw : string; gc_opening : C.Commitment.opening }

and graph_disclosure = {
  gd_vertex : string;  (** the vertex id; Merkle path = [Bitstring.of_id] *)
  gd_leaf : string;
  gd_proof : Pvr_merkle.Prefix_tree.proof;
  gd_preds : graph_component option;
  gd_succs : graph_component option;
  gd_payload : graph_component option;
  gd_bits : (int * C.Commitment.opening) list;
}

and graph_offence =
  | Wrong_input_value of {
      var : string;
      witness : Wire.announce Wire.signed;
          (** the disclosed input variable does not contain the witness's
              signed route *)
    }
  | False_evidence_bit of {
      op : string;
      index : int;
      witness : Wire.announce Wire.signed;
          (** the operator's committed bit [index] is 0 although the witness
              route proves it must be 1 *)
    }
  | Output_evidence_mismatch of { out_var : string; op : string; detail : string }
      (** the committed output value contradicts the operator's committed
          evidence bits *)
  | Export_not_committed of {
      out_var : string;
      export : Wire.export Wire.signed;
          (** A exported a route that is not the committed output value *)
    }

val accused : t -> Bgp.Asn.t
(** The AS the evidence incriminates (always the commit/export signer). *)

val describe : t -> string

val kind : t -> string
(** Canonical kebab-case tag of the violation class (a [Timeout] reports
    the omission claim it substantiates).  Always a member of
    {!all_kinds} — the vocabulary the evidence-plane query language's
    [kind] field is validated against. *)

val all_kinds : string list
(** Every tag {!kind} can produce, deduplicated, in declaration order. *)
