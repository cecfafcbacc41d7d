module Bgp = Pvr_bgp
module C = Pvr_crypto
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

type epoch = int

type 'a signed = { payload : 'a; signer : Bgp.Asn.t; signature : string }

let obs_kind kind =
  ( Pvr_obs.counter (Printf.sprintf "wire.%s.encodes" kind),
    Pvr_obs.counter (Printf.sprintf "wire.%s.bytes" kind) )

let obs_announce = obs_kind "announce"
let obs_commit = obs_kind "commit"
let obs_export = obs_kind "export"

let count (ops, bytes) s =
  Pvr_obs.incr ops;
  Pvr_obs.add bytes (String.length s);
  s

let signing_tag = "pvr-signed-v1:"

(* ---- Batched signatures (§3.8) ---------------------------------------------

   A signer with several statements to sign at once signs them under one RSA
   signature: the statements are the leaves of a small Merkle tree and the
   RSA signature covers its domain-tagged root.  Each statement's signature
   is then

     rsa_sig(root) ‖ nonce (16 B) ‖ leaf index (u32 BE) ‖ siblings (32 B each)

   with the siblings listed from the leaf up.  A batch of one is the plain
   RSA signature over the tagged statement, byte for byte, so the two shapes
   differ in length alone: a plain signature is exactly the modulus width.

   Leaves hide their statements.  Each statement is hashed once, to
   m = H(tagged statement); the leaf is H(0x00 ‖ nonce ‖ m), 49 bytes and
   one SHA-256 block.  The 16-byte nonce is the head of H(K ‖ m), where K
   is a secret 64-byte block derived from the signer's private key, so a
   verifier cannot confirm a guessed route against a sibling digest.
   Leaves are ordered by nonce.  A level of odd width is padded with a
   pseudorandom digest under the same key, so every leaf has exactly
   ceil(log2 n) siblings and a pad looks like any other sibling.  The
   sibling sides are the index bits (bit l set: the sibling sits on the
   left at level l) and an index must be below 2^depth, so a statement has
   exactly one encoding in a given batch. *)

let root_tag = "pvr-batch-root-v2:"
let nonce_len = 16
let max_depth = 32

let statement_hash enc =
  let ctx = C.Sha256.init () in
  C.Sha256.update ctx signing_tag;
  C.Sha256.update ctx enc;
  C.Sha256.finalize ctx

let leaf_hash nonce m = C.Sha256.digest (String.concat "" [ "\x00"; nonce; m ])
let node_hash l r = C.Sha256.digest_parts [ "\x01"; l; r ]

(* The SHA-256 state after the secret block K: every keyed digest of the
   batch copies it and hashes only its own input.  Keyed inputs have fixed
   lengths (32-byte m, 8-byte pad label), so no keyed output extends
   another. *)
let nonce_key (key : C.Rsa.private_key) =
  let k =
    C.Hmac.mac
      ~key:(C.Bigint.to_bytes_be key.C.Rsa.d)
      "pvr-batch-nonce-key-v2"
  in
  let ctx = C.Sha256.init () in
  C.Sha256.update ctx k;
  C.Sha256.update ctx (String.make (C.Sha256.block_size - String.length k) '\x00');
  ctx

let keyed nk msg =
  let ctx = C.Sha256.copy nk in
  C.Sha256.update ctx msg;
  C.Sha256.finalize ctx

(* Signatures for two or more distinct encodings, as (encoding, signature)
   pairs. *)
let batch_signatures key encs =
  let nk = nonce_key key in
  let leaves =
    List.map
      (fun e ->
        let m = statement_hash e in
        let nonce = String.sub (keyed nk m) 0 nonce_len in
        (nonce, leaf_hash nonce m, e))
      encs
    |> List.sort compare |> Array.of_list
  in
  let rec build depth level levels =
    if Array.length level = 1 then (level.(0), List.rev levels)
    else begin
      let level =
        if Array.length level mod 2 = 0 then level
        else
          Array.append level
            [| keyed nk ("\x02pad" ^ BU.be32 depth) |]
      in
      let up =
        Array.init (Array.length level / 2) (fun i ->
            node_hash level.(2 * i) level.((2 * i) + 1))
      in
      build (depth + 1) up (level :: levels)
    end
  in
  let root, levels =
    build 0 (Array.map (fun (_, leaf, _) -> leaf) leaves) []
  in
  let rsa = C.Rsa.sign key (root_tag ^ root) in
  Array.to_list leaves
  |> List.mapi (fun i (nonce, _, e) ->
         ( e,
           String.concat ""
             (rsa :: nonce :: BU.be32 i
             :: List.mapi (fun l level -> level.((i lsr l) lxor 1)) levels) ))

(* The single statement resolver behind [verify_batch]: the
   (message, RSA signature) pair a signature over encoding [enc] stands
   for — the tagged statement for a plain signature, the tagged Merkle root
   its path leads to for a batched one.  [None] for bytes of neither shape;
   never raises. *)
let resolve pub enc signature =
  let kb = C.Rsa.key_size pub in
  let len = String.length signature in
  if len = kb then Some (signing_tag ^ enc, signature)
  else begin
    let path = len - kb - nonce_len - 4 in
    let depth = path / 32 in
    if path <= 0 || path mod 32 <> 0 || depth > max_depth then None
    else begin
      let index = BU.read_be32 signature (kb + nonce_len) in
      if index lsr depth <> 0 then None
      else begin
        let node =
          ref (leaf_hash (String.sub signature kb nonce_len) (statement_hash enc))
        in
        for l = 0 to depth - 1 do
          let sibling = String.sub signature (kb + nonce_len + 4 + (32 * l)) 32 in
          node :=
            if (index lsr l) land 1 = 0 then node_hash !node sibling
            else node_hash sibling !node
        done;
        Some (root_tag ^ !node, String.sub signature 0 kb)
      end
    end
  end

type 'a draft = {
  d_payload : 'a;
  d_signer : Bgp.Asn.t;
  d_enc : string;
  mutable d_signature : string; (* "" until signed *)
}

type pending = Pending : 'a draft -> pending

let draft ~as_ ~encode payload =
  {
    d_payload = payload;
    d_signer = as_;
    d_enc = encode payload;
    d_signature = "";
  }

let signed d =
  if d.d_signature = "" then invalid_arg "Wire.signed: draft not signed yet";
  { payload = d.d_payload; signer = d.d_signer; signature = d.d_signature }

let sign_batch keyring pendings =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (Pending d as p) ->
      Hashtbl.replace groups d.d_signer
        (p :: Option.value (Hashtbl.find_opt groups d.d_signer) ~default:[]))
    pendings;
  Hashtbl.iter
    (fun signer group ->
      let key = Keyring.private_key keyring signer in
      let sigs =
        match
          List.sort_uniq String.compare
            (List.map (fun (Pending d) -> d.d_enc) group)
        with
        | [ e ] -> [ (e, C.Rsa.sign key (signing_tag ^ e)) ]
        | encs -> batch_signatures key encs
      in
      let by_enc = Hashtbl.of_seq (List.to_seq sigs) in
      List.iter
        (fun (Pending d) -> d.d_signature <- Hashtbl.find by_enc d.d_enc)
        group)
    groups

let sign_with key ~as_ ~encode payload =
  let msg = signing_tag ^ encode payload in
  { payload; signer = as_; signature = C.Rsa.sign key msg }

let sign keyring ~as_ ~encode payload =
  let d = draft ~as_ ~encode payload in
  sign_batch keyring [ Pending d ];
  signed d

(* ---- Verification ----------------------------------------------------------

   Every statement resolves to the (message, RSA signature) pair it stands
   for, and that pair is checked with one exact [Rsa.verify].  A verifier
   that checks many statements under one signer's batch root — a
   beneficiary receiving several exports from one prover in an epoch —
   would pay the same RSA operation once per statement, so verified pairs
   are remembered in a [Verified] table.  Its keys are the exact bytes of
   (verifying AS, signer, message, RSA signature): a verifier pays once per
   root it checks, never for another AS's verification.  Only positive
   verdicts are stored, so a forgery is re-checked (and rejected) on every
   presentation, and every statement still recomputes its own Merkle path
   up to the root. *)

module Verified = struct
  type t = {
    lock : Mutex.t option; (* [None]: a call-local table, never shared *)
    seen : (int * int * string * string, unit) Hashtbl.t;
  }

  let create () = { lock = Some (Mutex.create ()); seen = Hashtbl.create 64 }
  let local () = { lock = None; seen = Hashtbl.create 8 }

  let locked t f =
    match t.lock with None -> f () | Some m -> Mutex.protect m f

  let mem t key = locked t (fun () -> Hashtbl.mem t.seen key)
  let add t key = locked t (fun () -> Hashtbl.replace t.seen key ())
end

(* A heterogeneous batch member: the payload type is packed away so one
   [verify_batch] call can mix announces, commits and exports. *)
type check = Check : { item : 'a signed; encode : 'a -> string } -> check

let check ~encode item = Check { item; encode }

(* Unknown signers and malformed signatures are [false] without consulting
   RSA.  Verification runs outside the lock: two domains that miss on the
   same key both verify, and both store [true]. *)
let verify_batch ?verified keyring checks =
  let table, verifier =
    match verified with
    | Some (t, v) -> (t, Bgp.Asn.to_int v)
    | None -> (Verified.local (), -1)
  in
  List.map
    (fun (Check { item; encode }) ->
      match Keyring.public_key keyring item.signer with
      | exception Not_found -> false
      | pub -> (
          match resolve pub (encode item.payload) item.signature with
          | None -> false
          | Some (msg, signature) ->
              let key =
                (verifier, Bgp.Asn.to_int item.signer, msg, signature)
              in
              Verified.mem table key
              ||
              let ok = C.Rsa.verify pub ~msg ~signature in
              if ok then Verified.add table key;
              ok))
    checks

let verify ?verified keyring ~encode s =
  verify_batch ?verified keyring [ check ~encode s ] = [ true ]

type announce = { ann_epoch : epoch; ann_to : Bgp.Asn.t; ann_route : Bgp.Route.t }

type commit = {
  cmt_epoch : epoch;
  cmt_prefix : Bgp.Prefix.t;
  cmt_scheme : string;
  cmt_commitments : string list;
}

type export = {
  exp_epoch : epoch;
  exp_to : Bgp.Asn.t;
  exp_route : Bgp.Route.t;
  exp_provenance : announce signed option;
}

let encode_announce a =
  count obs_announce
    (Codec.encode_list
       [
         "announce";
         BU.be32 a.ann_epoch;
         BU.be32 (Bgp.Asn.to_int a.ann_to);
         Bgp.Route.encode a.ann_route;
       ])

let encode_commit c =
  count obs_commit
    (Codec.encode_list
       ([
          "commit";
          BU.be32 c.cmt_epoch;
          Bgp.Prefix.to_string c.cmt_prefix;
          c.cmt_scheme;
        ]
       @ c.cmt_commitments))

let encode_signed ~encode s =
  Codec.encode_list
    [ encode s.payload; BU.be32 (Bgp.Asn.to_int s.signer); s.signature ]

let encode_export e =
  count obs_export
    (Codec.encode_list
       [
         "export";
         BU.be32 e.exp_epoch;
         BU.be32 (Bgp.Asn.to_int e.exp_to);
         Bgp.Route.encode e.exp_route;
         (match e.exp_provenance with
         | None -> ""
         | Some ann -> encode_signed ~encode:encode_announce ann);
       ])

(* Signatures are not compared: one honest payload signed in two batches
   carries two different valid signatures, and each is verified on its own
   wherever a commit is accepted. *)
let equal_commit a b =
  Bgp.Asn.equal a.signer b.signer
  && encode_commit a.payload = encode_commit b.payload

(* ---- Transport decoding -------------------------------------------------- *)

(* Field decoders raise [Codec.Malformed]; each public decoder catches it
   at its [Codec.decode_list] boundary. *)

let asn_of s = Bgp.Asn.of_int (Codec.u32_item s)

let prefix_of s =
  match Bgp.Prefix.of_string s with
  | p -> p
  | exception Invalid_argument _ -> Codec.malformed "prefix"

let origin_of s =
  match Codec.u32_item s with
  | 0 -> Bgp.Route.Igp
  | 1 -> Bgp.Route.Egp
  | 2 -> Bgp.Route.Incomplete
  | _ -> Codec.malformed "origin"

let community_of s =
  if String.length s <> 8 then Codec.malformed "community";
  (BU.read_be32 s 0, BU.read_be32 s 4)

(* Route decoding mirrors [Bgp.Route.encode]. *)
let route_items = function
  | [ prefix; path; next_hop; local_pref; med; origin; communities ] ->
      {
        Bgp.Route.prefix = prefix_of prefix;
        as_path = List.map asn_of (Codec.list path);
        next_hop = asn_of next_hop;
        local_pref = Codec.u32_item local_pref;
        med = Codec.u32_item med;
        origin = origin_of origin;
        communities = List.map community_of (Codec.list communities);
      }
  | _ -> Codec.malformed "route"

let route_of s = route_items (Codec.list s)
let decode_route s = Codec.decode_list s route_items

let signed_of ~decode = function
  | [ payload; signer; signature ] -> (
      match decode payload with
      | Some payload -> { payload; signer = asn_of signer; signature }
      | None -> Codec.malformed "signed payload")
  | _ -> Codec.malformed "signed statement"

let decode_signed ~decode s = Codec.decode_list s (signed_of ~decode)

let decode_announce s =
  Codec.decode_list s (function
    | [ "announce"; epoch; to_; route ] ->
        {
          ann_epoch = Codec.u32_item epoch;
          ann_to = asn_of to_;
          ann_route = route_of route;
        }
    | _ -> Codec.malformed "announce")

let decode_commit s =
  Codec.decode_list s (function
    | "commit" :: epoch :: prefix :: scheme :: commitments ->
        {
          cmt_epoch = Codec.u32_item epoch;
          cmt_prefix = prefix_of prefix;
          cmt_scheme = scheme;
          cmt_commitments = commitments;
        }
    | _ -> Codec.malformed "commit")

let decode_export s =
  Codec.decode_list s (function
    | [ "export"; epoch; to_; route; provenance ] ->
        {
          exp_epoch = Codec.u32_item epoch;
          exp_to = asn_of to_;
          exp_route = route_of route;
          exp_provenance =
            (if provenance = "" then None
             else
               Some
                 (signed_of ~decode:decode_announce (Codec.list provenance)));
        }
    | _ -> Codec.malformed "export")
