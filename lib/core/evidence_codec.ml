module C = Pvr_crypto
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec
module Prefix_tree = Pvr_merkle.Prefix_tree

(* Decoders raise [Codec.Malformed] on any bad field; [decode] is the one
   boundary that turns it into [None]. *)

(* ---- primitives ---------------------------------------------------------- *)

let enc_list = Codec.encode_list

let enc_int n = BU.be32 n

let dec_int = Codec.u32_item

let enc_opening (o : C.Commitment.opening) =
  enc_list [ o.C.Commitment.value; o.C.Commitment.nonce ]

let dec_opening s =
  match Codec.list s with
  | [ value; nonce ] -> { C.Commitment.value; nonce }
  | _ -> Codec.malformed "opening"

let enc_option enc = function
  | None -> enc_list [ "0" ]
  | Some x -> enc_list [ "1"; enc x ]

let dec_option dec s =
  match Codec.list s with
  | [ "0" ] -> None
  | [ "1"; x ] -> Some (dec x)
  | _ -> Codec.malformed "option"

let enc_indexed_openings openings =
  enc_list (List.map (fun (i, o) -> enc_list [ enc_int i; enc_opening o ]) openings)

let dec_indexed_openings s =
  List.map
    (fun item ->
      match Codec.list item with
      | [ i; o ] -> (dec_int i, dec_opening o)
      | _ -> Codec.malformed "indexed opening")
    (Codec.list s)

let dec_signed ~decode s =
  match Wire.decode_signed ~decode s with
  | Some signed -> signed
  | None -> Codec.malformed "signed statement"

let enc_signed_announce = Wire.encode_signed ~encode:Wire.encode_announce
let dec_signed_announce = dec_signed ~decode:Wire.decode_announce
let enc_signed_commit = Wire.encode_signed ~encode:Wire.encode_commit
let dec_signed_commit = dec_signed ~decode:Wire.decode_commit
let enc_signed_export = Wire.encode_signed ~encode:Wire.encode_export
let dec_signed_export = dec_signed ~decode:Wire.decode_export

(* ---- graph pieces --------------------------------------------------------- *)

let enc_component (c : Evidence.graph_component) =
  enc_list [ c.Evidence.gc_raw; enc_opening c.Evidence.gc_opening ]

let dec_component s =
  match Codec.list s with
  | [ gc_raw; o ] -> { Evidence.gc_raw; gc_opening = dec_opening o }
  | _ -> Codec.malformed "graph component"

let enc_disclosure (d : Evidence.graph_disclosure) =
  enc_list
    [
      d.Evidence.gd_vertex;
      d.Evidence.gd_leaf;
      Prefix_tree.encode_proof d.Evidence.gd_proof;
      enc_option enc_component d.Evidence.gd_preds;
      enc_option enc_component d.Evidence.gd_succs;
      enc_option enc_component d.Evidence.gd_payload;
      enc_indexed_openings d.Evidence.gd_bits;
    ]

let dec_disclosure s =
  match Codec.list s with
  | [ gd_vertex; gd_leaf; proof; preds; succs; payload; bits ] ->
      {
        Evidence.gd_vertex;
        gd_leaf;
        gd_proof =
          (match Prefix_tree.decode_proof proof with
          | Some p -> p
          | None -> Codec.malformed "prefix-tree proof");
        gd_preds = dec_option dec_component preds;
        gd_succs = dec_option dec_component succs;
        gd_payload = dec_option dec_component payload;
        gd_bits = dec_indexed_openings bits;
      }
  | _ -> Codec.malformed "graph disclosure"

let enc_offence (o : Evidence.graph_offence) =
  match o with
  | Evidence.Wrong_input_value { var; witness } ->
      enc_list [ "wrong-input"; var; enc_signed_announce witness ]
  | Evidence.False_evidence_bit { op; index; witness } ->
      enc_list [ "false-bit"; op; enc_int index; enc_signed_announce witness ]
  | Evidence.Output_evidence_mismatch { out_var; op; detail } ->
      enc_list [ "output-mismatch"; out_var; op; detail ]
  | Evidence.Export_not_committed { out_var; export } ->
      enc_list [ "export-uncommitted"; out_var; enc_signed_export export ]

let dec_offence s =
  match Codec.list s with
  | [ "wrong-input"; var; witness ] ->
      Evidence.Wrong_input_value
        { var; witness = dec_signed_announce witness }
  | [ "false-bit"; op; index; witness ] ->
      Evidence.False_evidence_bit
        { op; index = dec_int index; witness = dec_signed_announce witness }
  | [ "output-mismatch"; out_var; op; detail ] ->
      Evidence.Output_evidence_mismatch { out_var; op; detail }
  | [ "export-uncommitted"; out_var; export ] ->
      Evidence.Export_not_committed
        { out_var; export = dec_signed_export export }
  | _ -> Codec.malformed "graph offence"

(* ---- top level ------------------------------------------------------------- *)

let rec encode (e : Evidence.t) =
  match e with
  | Evidence.Timeout { claim; retries } ->
      enc_list [ "timeout"; enc_int retries; encode claim ]
  | Evidence.Equivocation { first; second } ->
      enc_list [ "equivocation"; enc_signed_commit first; enc_signed_commit second ]
  | Evidence.False_bit { commit; index; opening; witness } ->
      enc_list
        [
          "false-bit"; enc_signed_commit commit; enc_int index;
          enc_opening opening; enc_signed_announce witness;
        ]
  | Evidence.Non_monotonic_bits
      { commit; set_index; set_opening; unset_index; unset_opening } ->
      enc_list
        [
          "non-monotonic"; enc_signed_commit commit; enc_int set_index;
          enc_opening set_opening; enc_int unset_index;
          enc_opening unset_opening;
        ]
  | Evidence.Nonminimal_export { commit; export; index; opening } ->
      enc_list
        [
          "nonminimal"; enc_signed_commit commit; enc_signed_export export;
          enc_int index; enc_opening opening;
        ]
  | Evidence.Unsupported_export { commit; export; openings } ->
      enc_list
        [
          "unsupported"; enc_signed_commit commit; enc_signed_export export;
          enc_indexed_openings openings;
        ]
  | Evidence.Bad_provenance { export } ->
      enc_list [ "bad-provenance"; enc_signed_export export ]
  | Evidence.Missing_export_claim { commit; openings; claimant } ->
      enc_list
        [
          "missing-export"; enc_signed_commit commit;
          enc_indexed_openings openings;
          enc_int (Pvr_bgp.Asn.to_int claimant);
        ]
  | Evidence.Missing_disclosure_claim { commit; announce; claimant } ->
      enc_list
        [
          "missing-disclosure"; enc_signed_commit commit;
          enc_signed_announce announce;
          enc_int (Pvr_bgp.Asn.to_int claimant);
        ]
  | Evidence.Graph_violation { commit; disclosures; offence } ->
      enc_list
        [
          "graph"; enc_signed_commit commit;
          enc_list (List.map enc_disclosure disclosures);
          enc_offence offence;
        ]
  | Evidence.Own_vector_mismatch { commit; my_export; bit_index; opening } ->
      enc_list
        [
          "own-vector"; enc_signed_commit commit; enc_signed_export my_export;
          enc_int bit_index; enc_opening opening;
        ]

let rec dec_evidence parts =
  match parts with
  | [ "timeout"; retries; claim ] -> (
      match Codec.list claim with
      (* Nesting is meaningless (a timeout of a timeout) and would let a
         hostile encoder stack arbitrarily deep recursion; reject it. *)
      | "timeout" :: _ -> Codec.malformed "nested timeout"
      | claim ->
          Evidence.Timeout
            { claim = dec_evidence claim; retries = dec_int retries })
  | [ "equivocation"; first; second ] ->
      Evidence.Equivocation
        { first = dec_signed_commit first; second = dec_signed_commit second }
  | [ "false-bit"; commit; index; opening; witness ] ->
      Evidence.False_bit
        {
          commit = dec_signed_commit commit;
          index = dec_int index;
          opening = dec_opening opening;
          witness = dec_signed_announce witness;
        }
  | [ "non-monotonic"; commit; si; so; ui; uo ] ->
      Evidence.Non_monotonic_bits
        {
          commit = dec_signed_commit commit;
          set_index = dec_int si;
          set_opening = dec_opening so;
          unset_index = dec_int ui;
          unset_opening = dec_opening uo;
        }
  | [ "nonminimal"; commit; export; index; opening ] ->
      Evidence.Nonminimal_export
        {
          commit = dec_signed_commit commit;
          export = dec_signed_export export;
          index = dec_int index;
          opening = dec_opening opening;
        }
  | [ "unsupported"; commit; export; openings ] ->
      Evidence.Unsupported_export
        {
          commit = dec_signed_commit commit;
          export = dec_signed_export export;
          openings = dec_indexed_openings openings;
        }
  | [ "bad-provenance"; export ] ->
      Evidence.Bad_provenance { export = dec_signed_export export }
  | [ "missing-export"; commit; openings; claimant ] ->
      Evidence.Missing_export_claim
        {
          commit = dec_signed_commit commit;
          openings = dec_indexed_openings openings;
          claimant = Pvr_bgp.Asn.of_int (dec_int claimant);
        }
  | [ "missing-disclosure"; commit; announce; claimant ] ->
      Evidence.Missing_disclosure_claim
        {
          commit = dec_signed_commit commit;
          announce = dec_signed_announce announce;
          claimant = Pvr_bgp.Asn.of_int (dec_int claimant);
        }
  | [ "graph"; commit; disclosures; offence ] ->
      Evidence.Graph_violation
        {
          commit = dec_signed_commit commit;
          disclosures = List.map dec_disclosure (Codec.list disclosures);
          offence = dec_offence offence;
        }
  | [ "own-vector"; commit; export; bit_index; opening ] ->
      Evidence.Own_vector_mismatch
        {
          commit = dec_signed_commit commit;
          my_export = dec_signed_export export;
          bit_index = dec_int bit_index;
          opening = dec_opening opening;
        }
  | _ -> Codec.malformed "evidence"

let decode s = Codec.decode_list s dec_evidence

let to_hex e = C.Hex.encode (encode e)

let of_hex s =
  match C.Hex.decode s with
  | bytes -> decode bytes
  | exception Invalid_argument _ -> None
