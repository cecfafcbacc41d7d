module Bgp = Pvr_bgp
module C = Pvr_crypto

type neighbor_disclosure = {
  nd_index : int;
  nd_opening : C.Commitment.opening;
}

type beneficiary_disclosure = {
  bd_openings : (int * C.Commitment.opening) list;
  bd_export : Wire.export Wire.signed option;
}

(* Everything [valid_input] checks except the signature. *)
let valid_input_structural ~prover ~epoch ~prefix
    (ann : Wire.announce Wire.signed) =
  Bgp.Asn.equal ann.Wire.payload.Wire.ann_to prover
  && ann.Wire.payload.Wire.ann_epoch = epoch
  && Bgp.Prefix.equal ann.Wire.payload.Wire.ann_route.Bgp.Route.prefix prefix
  &&
  match ann.Wire.payload.Wire.ann_route.Bgp.Route.as_path with
  | first :: _ -> Bgp.Asn.equal first ann.Wire.signer
  | [] -> false

let valid_input ?verified keyring ~prover ~epoch ~prefix
    (ann : Wire.announce Wire.signed) =
  valid_input_structural ~prover ~epoch ~prefix ann
  && Wire.verify ?verified keyring ~encode:Wire.encode_announce ann

(* Batch form: one verdict per announce, signature checks through one
   {!Wire.verify_batch} call (duplicate announces — gossip re-delivery,
   repeated inputs — cost one verification).  Agrees with per-item
   {!valid_input}. *)
let valid_inputs keyring ~prover ~epoch ~prefix anns =
  let sigs =
    Wire.verify_batch keyring
      (List.map (Wire.check ~encode:Wire.encode_announce) anns)
  in
  List.map2
    (fun ann ok -> ok && valid_input_structural ~prover ~epoch ~prefix ann)
    anns sigs

let opening_bit_at (commit : Wire.commit Wire.signed) =
  let digests = Array.of_list commit.Wire.payload.Wire.cmt_commitments in
  fun ~index opening ->
    if index < 1 || index > Array.length digests then None
    else begin
      let c = C.Commitment.of_raw digests.(index - 1) in
      if C.Commitment.verify c opening then C.Commitment.opening_bit opening
      else None
    end

(* Signatures last: an export that names another round costs no RSA. *)
let export_binds ?verified keyring ~commit ~beneficiary
    (export : Wire.export Wire.signed) =
  let cp = commit.Wire.payload and ep = export.Wire.payload in
  Bgp.Asn.equal export.Wire.signer commit.Wire.signer
  && ep.Wire.exp_epoch = cp.Wire.cmt_epoch
  && Bgp.Prefix.equal ep.Wire.exp_route.Bgp.Route.prefix cp.Wire.cmt_prefix
  && Bgp.Asn.equal ep.Wire.exp_to beneficiary
  && Wire.verify ?verified keyring ~encode:Wire.encode_export export

let export_provenance ?verified keyring (export : Wire.export Wire.signed) =
  let ep = export.Wire.payload in
  Option.bind ep.Wire.exp_provenance (fun ann ->
      if
        Bgp.Route.equal ann.Wire.payload.Wire.ann_route ep.Wire.exp_route
        && valid_input ?verified keyring ~prover:export.Wire.signer
             ~epoch:ep.Wire.exp_epoch ~prefix:ep.Wire.exp_route.Bgp.Route.prefix
             ann
      then Some ann
      else None)

(* The §3.2 link-state variant: providers ring-sign "a route exists". *)

let ring_statement ~epoch ~prefix =
  Printf.sprintf "pvr-ring:a route to %s exists in epoch %d"
    (Bgp.Prefix.to_string prefix)
    epoch

let ring_of keyring ring = Array.of_list (List.map (Keyring.public_key keyring) ring)

let index_of ring signer =
  let rec go i = function
    | [] -> invalid_arg "Proto_common.ring_announce: signer not in ring"
    | x :: rest -> if Bgp.Asn.equal x signer then i else go (i + 1) rest
  in
  go 0 ring

let ring_announce rng keyring ~ring ~signer ~epoch ~prefix =
  let pubs = ring_of keyring ring in
  let idx = index_of ring signer in
  C.Ring_signature.sign rng ~ring:pubs ~signer:idx
    ~key:(Keyring.private_key keyring signer)
    (ring_statement ~epoch ~prefix)

let ring_check keyring ~ring ~epoch ~prefix signature =
  C.Ring_signature.verify ~ring:(ring_of keyring ring)
    ~msg:(ring_statement ~epoch ~prefix)
    signature
