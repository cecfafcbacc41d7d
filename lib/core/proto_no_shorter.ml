module Bgp = Pvr_bgp
module C = Pvr_crypto
open Proto_common

type prover_output = {
  commit : Wire.commit Wire.signed;
  per_beneficiary : (Bgp.Asn.t * beneficiary_disclosure) list;
}

let scheme = "noshorter"

let prove ?(max_path_len = Proto_min.default_max_path_len) rng keyring ~prover
    ~beneficiaries ~epoch ~prefix ~exports =
  let route (ann : Wire.announce Wire.signed) =
    ann.Wire.payload.Wire.ann_route
  in
  let admitted ann =
    valid_input keyring ~prover ~epoch ~prefix ann
    && Bgp.Route.path_length (route ann) <= max_path_len
  in
  let chosen =
    List.filter_map
      (fun m ->
        match List.assoc_opt m exports with
        | Some ann when admitted ann -> Some (m, ann)
        | _ -> None)
      beneficiaries
  in
  let shortest =
    List.fold_left
      (fun s (_, ann) -> min s (Bgp.Route.path_length (route ann)))
      max_int chosen
  in
  let committed =
    Proto_min.commit_claim
      (fun ~tag:_ -> List.map (C.Commitment.commit_bit rng))
      ~tag:"" ~k:max_path_len ~claimed_shortest:shortest
  in
  let commit =
    Wire.draft ~as_:prover ~encode:Wire.encode_commit
      {
        Wire.cmt_epoch = epoch;
        cmt_prefix = prefix;
        cmt_scheme = scheme;
        cmt_commitments =
          List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string))
            committed;
      }
  in
  let drafts =
    List.map
      (fun (m, ann) ->
        ( m,
          Wire.draft ~as_:prover ~encode:Wire.encode_export
            {
              Wire.exp_epoch = epoch;
              exp_to = m;
              exp_route = route ann;
              exp_provenance = Some ann;
            } ))
      chosen
  in
  Wire.sign_batch keyring
    (Wire.Pending commit :: List.map (fun (_, d) -> Wire.Pending d) drafts);
  let openings = Proto_min.openings committed in
  let disclosure m =
    match List.assoc_opt m drafts with
    | Some d -> { bd_openings = openings; bd_export = Some (Wire.signed d) }
    | None -> { bd_openings = []; bd_export = None }
  in
  {
    commit = Wire.signed commit;
    per_beneficiary = List.map (fun m -> (m, disclosure m)) beneficiaries;
  }

let check_beneficiary keyring ~me ~commit ~disclosure =
  match disclosure with
  | { bd_openings = []; bd_export = None } -> []
  | _ -> Proto_min.check_beneficiary keyring ~me ~commit ~disclosure
