module Bgp = Pvr_bgp
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

type attestation = {
  att_prefix : Bgp.Prefix.t;
  att_path : Bgp.Asn.t list;
  att_to : Bgp.Asn.t;
}

type chain = attestation Wire.signed list

let encode_attestation a =
  Codec.encode_list
    [
      "sbgp-attest";
      Bgp.Prefix.to_string a.att_prefix;
      Codec.encode_list (List.map (fun x -> BU.be32 (Bgp.Asn.to_int x)) a.att_path);
      BU.be32 (Bgp.Asn.to_int a.att_to);
    ]

let sign_attestation keyring ~as_ a =
  Wire.sign keyring ~as_ ~encode:encode_attestation a

let originate keyring ~origin ~prefix ~to_ =
  [ sign_attestation keyring ~as_:origin
      { att_prefix = prefix; att_path = [ origin ]; att_to = to_ } ]

(* Validate one link: [att] was signed by the head of its own path. *)
let link_valid keyring (att : attestation Wire.signed) =
  Wire.verify keyring ~encode:encode_attestation att
  &&
  match att.Wire.payload.att_path with
  | signer :: _ -> Bgp.Asn.equal signer att.Wire.signer
  | [] -> false

let rec chain_valid keyring ~expected_path ~to_ = function
  | [] -> false
  | [ last ] ->
      (* The origin's attestation: single-AS path. *)
      link_valid keyring last
      && last.Wire.payload.att_path = expected_path
      && List.length expected_path = 1
      && Bgp.Asn.equal last.Wire.payload.att_to to_
  | att :: (next :: _ as rest) ->
      link_valid keyring att
      && att.Wire.payload.att_path = expected_path
      && Bgp.Asn.equal att.Wire.payload.att_to to_
      (* The previous hop addressed its attestation to this attester. *)
      && Bgp.Asn.equal next.Wire.payload.att_to att.Wire.signer
      && (match expected_path with
         | _ :: tail ->
             chain_valid keyring ~expected_path:tail ~to_:att.Wire.signer rest
         | [] -> false)

let verify keyring ~prefix ~path ~to_ chain =
  List.length chain = List.length path
  && List.for_all
       (fun (a : attestation Wire.signed) ->
         Bgp.Prefix.equal a.Wire.payload.att_prefix prefix)
       chain
  && chain_valid keyring ~expected_path:path ~to_ chain

let extend keyring ~me ~to_ chain =
  match chain with
  | [] -> Error "cannot extend an empty chain"
  | (prev : attestation Wire.signed) :: _ ->
      let prefix = prev.Wire.payload.att_prefix in
      if not (Bgp.Asn.equal prev.Wire.payload.att_to me) then
        Error "chain was not addressed to the extending AS"
      else if
        not
          (chain_valid keyring ~expected_path:prev.Wire.payload.att_path
             ~to_:me chain)
      then Error "received chain does not verify"
      else begin
        let new_path = me :: prev.Wire.payload.att_path in
        Ok
          (sign_attestation keyring ~as_:me
             { att_prefix = prefix; att_path = new_path; att_to = to_ }
          :: chain)
      end

let chain_route keyring (route : Bgp.Route.t) ~to_ =
  (* Fold over the path origin-outward, at each step addressing the
     attestation to the next AS outward (or [to_] at the very front). *)
  let rev = List.rev route.Bgp.Route.as_path in
  (* rev = origin first *)
  let recipients =
    (* recipient of hop i (origin-first order) is hop i+1, except the last
       hop whose recipient is [to_]. *)
    match rev with
    | [] -> invalid_arg "Sbgp.chain_route: empty path"
    | _ :: rest -> rest @ [ to_ ]
  in
  let _, chain =
    List.fold_left2
      (fun (path_so_far, acc) hop recipient ->
        let path = hop :: path_so_far in
        let att =
          sign_attestation keyring ~as_:hop
            {
              att_prefix = route.Bgp.Route.prefix;
              att_path = path;
              att_to = recipient;
            }
        in
        (path, att :: acc))
      ([], []) rev recipients
  in
  chain
