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

let valid_input keyring ~prover ~epoch ~prefix (ann : Wire.announce Wire.signed)
    =
  Wire.verify keyring ~encode:Wire.encode_announce ann
  && valid_input_structural ~prover ~epoch ~prefix ann

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

let opening_bit_at (commit : Wire.commit Wire.signed) ~index opening =
  let commitments = commit.Wire.payload.Wire.cmt_commitments in
  if index < 1 || index > List.length commitments then None
  else begin
    let c = C.Commitment.of_raw (List.nth commitments (index - 1)) in
    if C.Commitment.verify c opening then C.Commitment.opening_bit opening
    else None
  end

let check_export_provenance ?verified keyring ~commit ~beneficiary
    (export : Wire.export Wire.signed) =
  let bad () = Error (Evidence.Bad_provenance { export }) in
  let cp = commit.Wire.payload in
  let ep = export.Wire.payload in
  (* Both signatures (the export and its nested provenance announce) go
     through one batch call, under the beneficiary's table when it has
     one: each sits under its signer's batch root, which B checks once
     per epoch. *)
  let export_sig, ann_sig =
    match
      Wire.verify_batch
        ?verified:(Option.map (fun t -> (t, beneficiary)) verified)
        keyring
        (Wire.check ~encode:Wire.encode_export export
        :: Option.to_list
             (Option.map
                (Wire.check ~encode:Wire.encode_announce)
                ep.Wire.exp_provenance))
    with
    | [ e; a ] -> (e, a)
    | [ e ] -> (e, false)
    | _ -> (false, false)
  in
  if not export_sig then bad ()
  else if not (Bgp.Asn.equal export.Wire.signer commit.Wire.signer) then bad ()
  else if ep.Wire.exp_epoch <> cp.Wire.cmt_epoch then bad ()
  else if not (Bgp.Asn.equal ep.Wire.exp_to beneficiary) then bad ()
  else if
    not (Bgp.Prefix.equal ep.Wire.exp_route.Bgp.Route.prefix cp.Wire.cmt_prefix)
  then bad ()
  else begin
    match ep.Wire.exp_provenance with
    | None -> bad ()
    | Some ann ->
        if
          ann_sig
          && valid_input_structural ~prover:commit.Wire.signer
               ~epoch:cp.Wire.cmt_epoch ~prefix:cp.Wire.cmt_prefix ann
          && Bgp.Route.equal ann.Wire.payload.Wire.ann_route ep.Wire.exp_route
        then Ok ann
        else bad ()
  end

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
