module Bgp = Pvr_bgp
module C = Pvr_crypto

type t =
  | Equivocation of {
      first : Wire.commit Wire.signed;
      second : Wire.commit Wire.signed;
    }
  | False_bit of {
      commit : Wire.commit Wire.signed;
      index : int;
      opening : C.Commitment.opening;
      witness : Wire.announce Wire.signed;
    }
  | Non_monotonic_bits of {
      commit : Wire.commit Wire.signed;
      set_index : int;
      set_opening : C.Commitment.opening;
      unset_index : int;
      unset_opening : C.Commitment.opening;
    }
  | Nonminimal_export of {
      commit : Wire.commit Wire.signed;
      export : Wire.export Wire.signed;
      index : int;
      opening : C.Commitment.opening;
    }
  | Unsupported_export of {
      commit : Wire.commit Wire.signed;
      export : Wire.export Wire.signed;
      openings : (int * C.Commitment.opening) list;
    }
  | Bad_provenance of { export : Wire.export Wire.signed }
  | Missing_export_claim of {
      commit : Wire.commit Wire.signed;
      openings : (int * C.Commitment.opening) list;
      claimant : Bgp.Asn.t;
    }
  | Missing_disclosure_claim of {
      commit : Wire.commit Wire.signed;
      announce : Wire.announce Wire.signed;
      claimant : Bgp.Asn.t;
    }
  | Graph_violation of {
      commit : Wire.commit Wire.signed;
      disclosures : graph_disclosure list;
      offence : graph_offence;
    }
  | Own_vector_mismatch of {
      commit : Wire.commit Wire.signed;
      my_export : Wire.export Wire.signed;
      bit_index : int;
      opening : C.Commitment.opening;
    }
  | Timeout of { claim : t; retries : int }

and graph_component = { gc_raw : string; gc_opening : C.Commitment.opening }

and graph_disclosure = {
  gd_vertex : string;
  gd_leaf : string;
  gd_proof : Pvr_merkle.Prefix_tree.proof;
  gd_preds : graph_component option;
  gd_succs : graph_component option;
  gd_payload : graph_component option;
  gd_bits : (int * C.Commitment.opening) list;
}

and graph_offence =
  | Wrong_input_value of { var : string; witness : Wire.announce Wire.signed }
  | False_evidence_bit of {
      op : string;
      index : int;
      witness : Wire.announce Wire.signed;
    }
  | Output_evidence_mismatch of { out_var : string; op : string; detail : string }
  | Export_not_committed of {
      out_var : string;
      export : Wire.export Wire.signed;
    }

let rec accused = function
  | Equivocation { first; _ } -> first.Wire.signer
  | Timeout { claim; _ } -> accused claim
  | False_bit { commit; _ }
  | Non_monotonic_bits { commit; _ }
  | Nonminimal_export { commit; _ }
  | Unsupported_export { commit; _ }
  | Missing_export_claim { commit; _ }
  | Missing_disclosure_claim { commit; _ }
  | Graph_violation { commit; _ }
  | Own_vector_mismatch { commit; _ } ->
      commit.Wire.signer
  | Bad_provenance { export } -> export.Wire.signer

let rec describe t =
  let who = Bgp.Asn.to_string (accused t) in
  match t with
  | Timeout { claim; retries } ->
      Printf.sprintf "%s (%s stonewalled %d retries)" (describe claim) who
        retries
  | Equivocation _ -> who ^ " equivocated about its commitments"
  | False_bit { index; _ } ->
      Printf.sprintf "%s committed bit b_%d = 0 despite a witness route" who
        index
  | Non_monotonic_bits { set_index; unset_index; _ } ->
      Printf.sprintf "%s committed non-monotonic bits (b_%d = 1, b_%d = 0)" who
        set_index unset_index
  | Nonminimal_export { index; _ } ->
      Printf.sprintf
        "%s exported a route although bit b_%d shows a shorter input" who index
  | Unsupported_export _ ->
      who ^ " exported a route although it committed to having no input"
  | Bad_provenance _ -> who ^ " exported a route with invalid provenance"
  | Missing_export_claim { claimant; _ } ->
      Printf.sprintf "%s failed to export to %s despite committing b = 1" who
        (Bgp.Asn.to_string claimant)
  | Missing_disclosure_claim { claimant; _ } ->
      Printf.sprintf "%s failed to disclose its bit to %s" who
        (Bgp.Asn.to_string claimant)
  | Graph_violation { offence; _ } -> begin
      match offence with
      | Wrong_input_value { var; witness } ->
          Printf.sprintf
            "%s committed an input variable %s that omits %s's announced route"
            who var
            (Bgp.Asn.to_string witness.Wire.signer)
      | False_evidence_bit { op; index; witness } ->
          Printf.sprintf
            "%s committed bit %d of operator %s as 0 despite %s's route" who
            index op
            (Bgp.Asn.to_string witness.Wire.signer)
      | Output_evidence_mismatch { out_var; op; detail } ->
          Printf.sprintf "%s: output %s contradicts evidence of %s (%s)" who
            out_var op detail
      | Export_not_committed { out_var; _ } ->
          Printf.sprintf "%s exported a route that is not the committed %s" who
            out_var
    end
  | Own_vector_mismatch { bit_index; _ } ->
      Printf.sprintf
        "%s committed b_%d = 0 despite exporting a %d-hop route (promise 4)"
        who bit_index bit_index

(* Canonical evidence-kind tags: the queryable vocabulary of the audit
   plane.  A [Timeout] reports the omission it substantiates — the query
   layer cares about what was withheld, not that silence proved it. *)
let rec kind = function
  | Equivocation _ -> "equivocation"
  | False_bit _ -> "false-bit"
  | Non_monotonic_bits _ -> "non-monotonic-bits"
  | Nonminimal_export _ -> "nonminimal-export"
  | Unsupported_export _ -> "unsupported-export"
  | Bad_provenance _ -> "bad-provenance"
  | Missing_export_claim _ -> "missing-export"
  | Missing_disclosure_claim _ -> "missing-disclosure"
  | Graph_violation _ -> "graph-violation"
  | Own_vector_mismatch _ -> "own-vector-mismatch"
  | Timeout { claim; _ } -> kind claim

let all_kinds =
  [
    "equivocation";
    "false-bit";
    "non-monotonic-bits";
    "nonminimal-export";
    "unsupported-export";
    "bad-provenance";
    "missing-export";
    "missing-disclosure";
    "graph-violation";
    "own-vector-mismatch";
  ]
