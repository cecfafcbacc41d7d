module Bgp = Pvr_bgp
module Codec = Pvr_crypto.Codec
module J = Pvr_obs.Json

type t = {
  r_epoch : int;
  r_prover : int;
  r_addr : int;
  r_len : int;
  r_beneficiary : int;
  r_providers : int list;
  r_behaviour : string;
  r_detected : bool;
  r_convicted : bool;
  r_evidence : int;
  r_kinds : string list;
  r_leaked : int;
  r_excess : int;
}

let prover r = Bgp.Asn.of_int r.r_prover
let beneficiary r = Bgp.Asn.of_int r.r_beneficiary
let providers r = List.map Bgp.Asn.of_int r.r_providers
let prefix r = Bgp.Prefix.make ~addr:r.r_addr ~len:r.r_len

let verdict r =
  if r.r_convicted then "guilty" else if r.r_detected then "detected" else "ok"

(* Row identity order = journal order: epoch first, then the engine's
   (prover, prefix) vertex sort within the epoch. *)
let compare a b =
  let c = Int.compare a.r_epoch b.r_epoch in
  if c <> 0 then c
  else
    let c = Int.compare a.r_prover b.r_prover in
    if c <> 0 then c
    else
      let c = Int.compare a.r_addr b.r_addr in
      if c <> 0 then c else Int.compare a.r_len b.r_len

let equal a b = compare a b = 0 && a = b

(* The body is every field after the epoch, in declaration order; the
   engine's vertex-state records carry the same body. *)
let encode_body buf r =
  Codec.u32 buf r.r_prover;
  Codec.u32 buf r.r_addr;
  Codec.u32 buf r.r_len;
  Codec.u32 buf r.r_beneficiary;
  Codec.u32 buf (List.length r.r_providers);
  List.iter (fun p -> Codec.u32 buf p) r.r_providers;
  Codec.str buf r.r_behaviour;
  Codec.bool_ buf r.r_detected;
  Codec.bool_ buf r.r_convicted;
  Codec.u32 buf r.r_evidence;
  Codec.u32 buf (List.length r.r_kinds);
  List.iter (fun k -> Codec.str buf k) r.r_kinds;
  Codec.u32 buf r.r_leaked;
  Codec.u32 buf r.r_excess

let encode buf r =
  Codec.u32 buf r.r_epoch;
  encode_body buf r

let read_body ~epoch:r_epoch rd =
  let r_prover = Codec.get_u32 rd in
  let r_addr = Codec.get_u32 rd in
  let r_len = Codec.get_u32 rd in
  if r_len > 32 then Codec.malformed "prefix length out of range";
  let r_beneficiary = Codec.get_u32 rd in
  let np = Codec.get_u32 rd in
  let r_providers = List.init np (fun _ -> Codec.get_u32 rd) in
  let r_behaviour = Codec.get_str rd in
  let r_detected = Codec.get_bool rd in
  let r_convicted = Codec.get_bool rd in
  let r_evidence = Codec.get_u32 rd in
  let nk = Codec.get_u32 rd in
  let r_kinds = List.init nk (fun _ -> Codec.get_str rd) in
  let r_leaked = Codec.get_u32 rd in
  let r_excess = Codec.get_u32 rd in
  {
    r_epoch;
    r_prover;
    r_addr;
    r_len;
    r_beneficiary;
    r_providers;
    r_behaviour;
    r_detected;
    r_convicted;
    r_evidence;
    r_kinds;
    r_leaked;
    r_excess;
  }

let read rd = read_body ~epoch:(Codec.get_u32 rd) rd

let to_json r =
  J.Obj
    [
      ("epoch", J.Int r.r_epoch);
      ("prover", J.Int r.r_prover);
      ("prefix", J.String (Bgp.Prefix.to_string (prefix r)));
      ("beneficiary", J.Int r.r_beneficiary);
      ("providers", J.List (List.map (fun p -> J.Int p) r.r_providers));
      ("behaviour", J.String r.r_behaviour);
      ("verdict", J.String (verdict r));
      ("detected", J.Bool r.r_detected);
      ("convicted", J.Bool r.r_convicted);
      ("evidence", J.Int r.r_evidence);
      ("kinds", J.List (List.map (fun k -> J.String k) r.r_kinds));
      ("leaked_bits", J.Int r.r_leaked);
      ("excess_bits", J.Int r.r_excess);
    ]
