module Bgp = Pvr_bgp
module C = Pvr_crypto
open Proto_common

type prover_output = {
  commit : Wire.commit Wire.signed;
  neighbor_disclosures : (Bgp.Asn.t * neighbor_disclosure) list;
  beneficiary_disclosure : beneficiary_disclosure;
  inputs : Wire.announce Wire.signed list;
}

let scheme = "min"

let default_max_path_len = 32

let path_len (ann : Wire.announce Wire.signed) =
  Bgp.Route.path_length ann.Wire.payload.Wire.ann_route

let prove ?(max_path_len = default_max_path_len) rng keyring ~prover
    ~beneficiary ~epoch ~prefix ~inputs =
  Pvr_obs.with_span "proto_min.prove" @@ fun () ->
  let inputs =
    (* Input-signature checks are the per-round RSA bill; batch them. *)
    List.map2
      (fun ann ok -> (ann, ok))
      inputs
      (valid_inputs keyring ~prover ~epoch ~prefix inputs)
    |> List.filter_map (fun (ann, ok) ->
           if ok && path_len ann <= max_path_len then Some ann else None)
  in
  let lengths = List.map path_len inputs in
  let shortest = List.fold_left min max_int lengths in
  (* b_i = 1 iff some input has length <= i, i.e. iff shortest <= i. *)
  let bits = List.init max_path_len (fun i -> shortest <= i + 1) in
  let committed = List.map (C.Commitment.commit_bit rng) bits in
  let commit =
    Wire.sign keyring ~as_:prover ~encode:Wire.encode_commit
      {
        Wire.cmt_epoch = epoch;
        cmt_prefix = prefix;
        cmt_scheme = scheme;
        cmt_commitments =
          List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string)) committed;
      }
  in
  let openings = List.map snd committed in
  let opening_at i = List.nth openings (i - 1) in
  let neighbor_disclosures =
    List.map
      (fun ann ->
        ( ann.Wire.signer,
          { nd_index = path_len ann; nd_opening = opening_at (path_len ann) } ))
      inputs
  in
  let winner =
    List.find_opt (fun ann -> path_len ann = shortest) inputs
  in
  let export =
    Option.map
      (fun (chosen : Wire.announce Wire.signed) ->
        Wire.sign keyring ~as_:prover ~encode:Wire.encode_export
          {
            Wire.exp_epoch = epoch;
            exp_to = beneficiary;
            exp_route = chosen.Wire.payload.Wire.ann_route;
            exp_provenance = Some chosen;
          })
      winner
  in
  {
    commit;
    neighbor_disclosures;
    beneficiary_disclosure =
      {
        bd_openings = List.mapi (fun i o -> (i + 1, o)) openings;
        bd_export = export;
      };
    inputs;
  }

let check_neighbor _keyring ~me ~my_announce ~commit ~disclosure =
  let missing =
    Evidence.Missing_disclosure_claim
      { commit; announce = my_announce; claimant = me }
  in
  let my_len =
    Bgp.Route.path_length my_announce.Wire.payload.Wire.ann_route
  in
  match disclosure with
  | None -> [ missing ]
  | Some { nd_index; nd_opening } ->
      if nd_index <> my_len then [ missing ]
      else begin
        match opening_bit_at commit ~index:nd_index nd_opening with
        | None -> [ missing ]
        | Some true -> []
        | Some false ->
            [
              Evidence.False_bit
                {
                  commit;
                  index = nd_index;
                  opening = nd_opening;
                  witness = my_announce;
                };
            ]
      end

let check_beneficiary keyring ~me ~commit ~disclosure =
  let k = List.length commit.Wire.payload.Wire.cmt_commitments in
  let claim_missing () =
    [
      Evidence.Missing_export_claim
        { commit; openings = disclosure.bd_openings; claimant = me };
    ]
  in
  (* Validate the openings: B expects one valid bit opening per index. *)
  let bits =
    List.filter_map
      (fun (i, o) ->
        match opening_bit_at commit ~index:i o with
        | Some b -> Some (i, b, o)
        | None -> None)
      disclosure.bd_openings
  in
  let indices = List.map (fun (i, _, _) -> i) bits in
  if List.sort_uniq Int.compare indices <> List.init k (fun i -> i + 1) then
    claim_missing ()
  else begin
    let bit_at i =
      let _, b, o = List.find (fun (j, _, _) -> j = i) bits in
      (b, o)
    in
    (* Monotonicity: find i < j with b_i = 1, b_j = 0. *)
    let monotonicity_violation =
      List.concat_map
        (fun (i, bi, oi) ->
          if not bi then []
          else
            List.filter_map
              (fun (j, bj, oj) ->
                if j > i && not bj then
                  Some
                    (Evidence.Non_monotonic_bits
                       {
                         commit;
                         set_index = i;
                         set_opening = oi;
                         unset_index = j;
                         unset_opening = oj;
                       })
                else None)
              bits)
        bits
    in
    match monotonicity_violation with
    | e :: _ -> [ e ] (* one self-contained proof is enough *)
    | [] -> begin
        let any_set = List.exists (fun (_, b, _) -> b) bits in
        match (any_set, disclosure.bd_export) with
        | false, None -> []
        | false, Some export -> begin
            match
              check_export_provenance keyring ~commit ~beneficiary:me export
            with
            | Ok _ ->
                [
                  Evidence.Unsupported_export
                    {
                      commit;
                      export;
                      openings = List.map (fun (i, _, o) -> (i, o)) bits;
                    };
                ]
            | Error e -> [ e ]
          end
        | true, None -> claim_missing ()
        | true, Some export -> begin
            match
              check_export_provenance keyring ~commit ~beneficiary:me export
            with
            | Error e -> [ e ]
            | Ok provenance -> begin
                let len =
                  Bgp.Route.path_length
                    export.Wire.payload.Wire.exp_route
                in
                if len > k then
                  (* The committed bit vector cannot even express this
                     length: treat as provenance abuse. *)
                  [ Evidence.Bad_provenance { export } ]
                else begin
                  (* Minimality: no bit below the exported length may be
                     set; the bit at the exported length must be set. *)
                  let shorter_set =
                    List.filter_map
                      (fun (i, b, o) ->
                        if i < len && b then
                          Some
                            (Evidence.Nonminimal_export
                               { commit; export; index = i; opening = o })
                        else None)
                      bits
                  in
                  match shorter_set with
                  | e :: _ -> [ e ]
                  | [] ->
                      let b_len, o_len = bit_at len in
                      if b_len then []
                      else
                        [
                          Evidence.False_bit
                            {
                              commit;
                              index = len;
                              opening = o_len;
                              witness = provenance;
                            };
                        ]
                end
              end
          end
      end
  end
