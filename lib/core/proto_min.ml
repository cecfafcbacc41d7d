module Bgp = Pvr_bgp
module C = Pvr_crypto
open Proto_common

type committed = (C.Commitment.commitment * C.Commitment.opening) list
type committer = tag:string -> bool list -> committed
type provenance = Input of Bgp.Asn.t | Forged of Wire.announce Wire.signed
type export_plan = Bgp.Route.t * provenance
type answer = Stonewall | Stand_by of export_plan option

type draft = {
  dr_keyring : Keyring.t;
  dr_committer : committer;
  dr_prover : Bgp.Asn.t;
  dr_beneficiary : Bgp.Asn.t;
  dr_epoch : Wire.epoch;
  dr_prefix : Bgp.Prefix.t;
  dr_inputs : (Bgp.Asn.t * Bgp.Route.t) list;
  dr_committed : committed;
  dr_committed_b : committed;
  dr_withheld : Bgp.Asn.t list;
  dr_export : export_plan option;
  dr_answer : answer;
}

let scheme = "min"

let default_max_path_len = 32

let route_len (_, r) = Bgp.Route.path_length r

(* b_i = 1 iff some input has length <= i, i.e. iff shortest <= i. *)
let commit_claim committer ~tag ~k ~claimed_shortest =
  committer ~tag (List.init k (fun i -> claimed_shortest <= i + 1))

let openings committed = List.mapi (fun i (_, o) -> (i + 1, o)) committed

let draft ?(max_path_len = default_max_path_len) ?export keyring ~committer
    ~prover ~beneficiary ~epoch ~prefix ~inputs =
  let shortest =
    List.fold_left (fun m i -> min m (route_len i)) max_int inputs
  in
  let committed =
    commit_claim committer ~tag:"" ~k:max_path_len ~claimed_shortest:shortest
  in
  let exported (_, r) =
    Option.fold ~none:false ~some:(Bgp.Route.equal r) export
  in
  let chosen =
    match List.find_opt exported inputs with
    | None -> List.find_opt (fun i -> route_len i = shortest) inputs
    | c -> c
  in
  let export = Option.map (fun (n, r) -> (r, Input n)) chosen in
  {
    dr_keyring = keyring;
    dr_committer = committer;
    dr_prover = prover;
    dr_beneficiary = beneficiary;
    dr_epoch = epoch;
    dr_prefix = prefix;
    dr_inputs = inputs;
    dr_committed = committed;
    dr_committed_b = committed;
    dr_withheld = [];
    dr_export = export;
    dr_answer = Stand_by export;
  }

let check_neighbor ?(on_bit = fun _ _ -> ()) _keyring ~me ~my_announce ~commit
    ~disclosure =
  let missing =
    Evidence.Missing_disclosure_claim
      { commit; announce = my_announce; claimant = me }
  in
  let my_len =
    Bgp.Route.path_length my_announce.Wire.payload.Wire.ann_route
  in
  match disclosure with
  | None -> [ missing ]
  | Some { nd_index; nd_opening } -> begin
      match opening_bit_at commit ~index:nd_index nd_opening with
      | None -> [ missing ]
      | Some bit ->
          on_bit nd_index bit;
          if nd_index <> my_len then [ missing ]
          else if bit then []
          else
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

let check_beneficiary ?(on_bit = fun _ _ -> ()) keyring ~me ~commit ~disclosure
    =
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
        | Some b ->
            on_bit i b;
            Some (i, b, o)
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
