module H = Pvr_crypto.Sha256
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

(* [build] hashes every node once, blinded children included, so [root]
   and [prove] only read digests. *)
type node =
  | Sealed of string               (* digest of a leaf or a blinded subtree *)
  | Branch of string * node * node (* digest, children for bit 0 / bit 1 *)

type t = { entries : (Bitstring.t * string) list; top : node }

let leaf_hash v = H.digest ("pt-leaf:" ^ v)
let node_hash l r = H.digest ("pt-node:" ^ l ^ r)

(* Digest standing in for an uninstantiated subtree at [path].  Keyed by the
   private seed, so it is indistinguishable from a real subtree digest to
   anyone who does not hold the seed. *)
let blind_hash seed path =
  H.digest ("pt-blind:" ^ Codec.encode_list [ seed; Bitstring.to_string path ])

let digest = function Sealed d | Branch (d, _, _) -> d

(* Commit to the subtree at [path] (depth [d]) holding [entries], whose
   paths all extend [path].  The paths are prefix-free, so a subtree with
   several entries is always an inner node, and a leaf is a lone entry
   ending at [d]. *)
let rec seal seed path d = function
  | [] -> Sealed (blind_hash seed path)
  | [ (p, v) ] when Bitstring.length p = d -> Sealed (leaf_hash v)
  | entries ->
      let one, zero =
        List.partition (fun (p, _) -> Bitstring.get p d) entries
      in
      let z = seal seed (Bitstring.append_bit path false) (d + 1) zero in
      let o = seal seed (Bitstring.append_bit path true) (d + 1) one in
      Branch (node_hash (digest z) (digest o), z, o)

let build ~seed entries =
  if not (Bitstring.prefix_free (List.map fst entries)) then
    invalid_arg "Prefix_tree.build: paths are not prefix-free";
  { entries; top = seal seed Bitstring.empty 0 entries }

let root t = digest t.top

let cardinal t = List.length t.entries

let find t path =
  List.find_map
    (fun (p, v) -> if Bitstring.equal p path then Some v else None)
    t.entries

let mem t path = find t path <> None

type proof = string list
(* Sibling digest at each level, from the root down to the leaf's parent. *)

let prove t path =
  match find t path with
  | None -> None
  | Some value ->
      let n = Bitstring.length path in
      let rec walk node i acc =
        if i = n then List.rev acc
        else begin
          match node with
          | Branch (_, z, o) ->
              if Bitstring.get path i then walk o (i + 1) (digest z :: acc)
              else walk z (i + 1) (digest o :: acc)
          | Sealed _ -> assert false (* [find] guaranteed the path exists *)
        end
      in
      Some (value, walk t.top 0 [])

let verify ~root:expected ~path ~value proof =
  let n = Bitstring.length path in
  List.length proof = n
  &&
  (* Fold from the leaf back to the root; sibling list is root-down, so pair
     it with bit indices and fold in reverse. *)
  let acc = ref (leaf_hash value) in
  let siblings = Array.of_list proof in
  for i = n - 1 downto 0 do
    let sib = siblings.(i) in
    acc :=
      if Bitstring.get path i then node_hash sib !acc else node_hash !acc sib
  done;
  BU.equal_ct !acc expected

let proof_length = List.length

let encode_proof p = Codec.encode_list p

let decode_proof s =
  Codec.decode_list s (fun siblings ->
      if List.exists (fun d -> String.length d <> 32) siblings then
        Codec.malformed "sibling digest";
      siblings)
