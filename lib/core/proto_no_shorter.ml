module Bgp = Pvr_bgp
module C = Pvr_crypto
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec
open Proto_common

type prover_output = {
  commit : Wire.commit Wire.signed;
  per_beneficiary : (Bgp.Asn.t * beneficiary_disclosure) list;
}

let scheme = "noshorter"

(* Commitment layout: element 0 is a header encoding the beneficiary order
   and k; elements 1.. are the bit digests, one k-bit block per beneficiary
   in header order.  Global (1-based over the digest region) index of bit i
   of block j (0-based) is j*k + i; its list position is 1 + j*k + i - 1. *)

let encode_header ~beneficiaries ~k =
  Codec.encode_list
    (BU.be32 k :: List.map (fun a -> BU.be32 (Bgp.Asn.to_int a)) beneficiaries)

let decode_header s =
  Codec.decode_list s (fun items ->
      match List.map Codec.u32_item items with
      | k :: asns -> (k, List.map Bgp.Asn.of_int asns)
      | [] -> Codec.malformed "empty header")

let header_of_commit (commit : Wire.commit Wire.signed) =
  match commit.Wire.payload.Wire.cmt_commitments with
  | header :: _ -> decode_header header
  | [] -> None

let block_of ~beneficiaries me =
  let rec go j = function
    | [] -> None
    | x :: rest -> if Bgp.Asn.equal x me then Some j else go (j + 1) rest
  in
  go 0 beneficiaries

let vector_of ~beneficiaries ~k ~me i =
  match block_of ~beneficiaries me with
  | Some j -> (j * k) + i
  | None -> invalid_arg "Proto_no_shorter.vector_of: unknown beneficiary"

(* Opening check against digest region position [global] (1-based). *)
let bit_at (commit : Wire.commit Wire.signed) ~global opening =
  let commitments = commit.Wire.payload.Wire.cmt_commitments in
  if global < 1 || global + 1 > List.length commitments then None
  else begin
    let c = C.Commitment.of_raw (List.nth commitments global) in
    if C.Commitment.verify c opening then C.Commitment.opening_bit opening
    else None
  end

let prove ?(max_path_len = Proto_min.default_max_path_len) rng keyring ~prover
    ~beneficiaries ~epoch ~prefix ~exports =
  let k = max_path_len in
  let exports =
    List.filter
      (fun ((_ : Bgp.Asn.t), ann) ->
        valid_input keyring ~prover ~epoch ~prefix ann
        && Bgp.Route.path_length ann.Wire.payload.Wire.ann_route <= k)
      exports
  in
  let len_for m =
    Option.map
      (fun (ann : Wire.announce Wire.signed) ->
        Bgp.Route.path_length ann.Wire.payload.Wire.ann_route)
      (List.assoc_opt m exports)
  in
  (* One k-bit block per beneficiary. *)
  let blocks =
    List.map
      (fun m ->
        let len = len_for m in
        List.init k (fun i ->
            match len with Some l -> l <= i + 1 | None -> false))
      beneficiaries
  in
  let committed =
    List.map (List.map (C.Commitment.commit_bit rng)) blocks
  in
  let digests =
    List.concat_map
      (List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string)))
      committed
  in
  let commit =
    Wire.sign keyring ~as_:prover ~encode:Wire.encode_commit
      {
        Wire.cmt_epoch = epoch;
        cmt_prefix = prefix;
        cmt_scheme = scheme;
        cmt_commitments = encode_header ~beneficiaries ~k :: digests;
      }
  in
  let opening_at global =
    let j = (global - 1) / k and i = (global - 1) mod k in
    snd (List.nth (List.nth committed j) i)
  in
  let per_beneficiary =
    List.map
      (fun m ->
        let my_block =
          match block_of ~beneficiaries m with Some j -> j | None -> 0
        in
        let own =
          List.init k (fun i ->
              let global = (my_block * k) + i + 1 in
              (global, opening_at global))
        in
        let cross =
          match len_for m with
          | Some l when l >= 2 ->
              List.concat
                (List.mapi
                   (fun j other ->
                     if Bgp.Asn.equal other m then []
                     else begin
                       let global = (j * k) + (l - 1) in
                       [ (global, opening_at global) ]
                     end)
                   beneficiaries)
          | _ -> []
        in
        let export =
          Option.map
            (fun (chosen : Wire.announce Wire.signed) ->
              Wire.sign keyring ~as_:prover ~encode:Wire.encode_export
                {
                  Wire.exp_epoch = epoch;
                  exp_to = m;
                  exp_route = chosen.Wire.payload.Wire.ann_route;
                  exp_provenance = Some chosen;
                })
            (List.assoc_opt m exports)
        in
        (m, { bd_openings = own @ cross; bd_export = export }))
      beneficiaries
  in
  { commit; per_beneficiary }

let check_beneficiary ?(max_path_len = Proto_min.default_max_path_len) keyring
    ~me ~beneficiaries ~commit ~disclosure =
  let claim () =
    [
      Evidence.Missing_export_claim
        { commit; openings = disclosure.bd_openings; claimant = me };
    ]
  in
  match header_of_commit commit with
  | None -> claim ()
  | Some (k, committed_order) ->
      if
        k <> max_path_len
        || committed_order <> beneficiaries
        || List.length commit.Wire.payload.Wire.cmt_commitments
           <> 1 + (k * List.length beneficiaries)
      then claim ()
      else begin
        match block_of ~beneficiaries me with
        | None -> claim ()
        | Some my_block -> begin
            let my_bit i =
              let global = (my_block * k) + i in
              match List.assoc_opt global disclosure.bd_openings with
              | None -> None
              | Some o -> Option.map (fun b -> (b, o)) (bit_at commit ~global o)
            in
            match disclosure.bd_export with
            | None -> begin
                (* Nothing exported to me: my whole vector must open to 0. *)
                let issues = ref [] in
                for i = 1 to k do
                  match my_bit i with
                  | Some (true, _) | None ->
                      if !issues = [] then issues := claim ()
                  | Some (false, _) -> ()
                done;
                !issues
              end
            | Some export -> begin
                match
                  check_export_provenance keyring ~commit ~beneficiary:me
                    export
                with
                | Error e -> [ e ]
                | Ok _ -> begin
                    let l =
                      Bgp.Route.path_length export.Wire.payload.Wire.exp_route
                    in
                    if l > k then [ Evidence.Bad_provenance { export } ]
                    else begin
                      let issues = ref [] in
                      (* 1. Own vector must encode exactly length l. *)
                      for i = 1 to k do
                        match my_bit i with
                        | None -> if !issues = [] then issues := claim ()
                        | Some (b, o) ->
                            if b <> (l <= i) then
                              issues :=
                                Evidence.Own_vector_mismatch
                                  {
                                    commit;
                                    my_export = export;
                                    bit_index = i;
                                    opening = o;
                                  }
                                :: !issues
                      done;
                      (* 2. No other beneficiary's bit b_{l-1} may be 1. *)
                      if l >= 2 then
                        List.iteri
                          (fun j other ->
                            if not (Bgp.Asn.equal other me) then begin
                              let global = (j * k) + (l - 1) in
                              match
                                List.assoc_opt global disclosure.bd_openings
                              with
                              | None -> if !issues = [] then issues := claim ()
                              | Some o -> begin
                                  match bit_at commit ~global o with
                                  | Some true ->
                                      issues :=
                                        Evidence.Cross_shorter_export
                                          {
                                            commit;
                                            my_export = export;
                                            other_block = j;
                                            opening = o;
                                          }
                                        :: !issues
                                  | Some false -> ()
                                  | None ->
                                      if !issues = [] then issues := claim ()
                                end
                            end)
                          beneficiaries;
                      List.rev !issues
                    end
                  end
              end
          end
      end
