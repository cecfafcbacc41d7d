module H = Pvr_crypto.Sha256
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

type node =
  | Leaf of string                     (* committed value *)
  | Inner of node option * node option (* children for bit 0 / bit 1 *)

type t = { seed : string; entries : (Bitstring.t * string) list; top : node option }

let leaf_hash v = H.digest ("pt-leaf:" ^ v)
let node_hash l r = H.digest ("pt-node:" ^ l ^ r)

(* Digest standing in for an uninstantiated subtree at [path].  Keyed by the
   private seed, so it is indistinguishable from a real subtree digest to
   anyone who does not hold the seed. *)
let blind_hash seed path =
  H.digest ("pt-blind:" ^ Codec.encode_list [ seed; Bitstring.to_string path ])

let insert top path value =
  let n = Bitstring.length path in
  let rec go node i =
    if i = n then begin
      match node with
      | None -> Leaf value
      | Some (Leaf _) -> invalid_arg "Prefix_tree.build: duplicate path"
      | Some (Inner _) -> invalid_arg "Prefix_tree.build: not prefix-free"
    end
    else begin
      let zero, one =
        match node with
        | None -> (None, None)
        | Some (Inner (z, o)) -> (z, o)
        | Some (Leaf _) -> invalid_arg "Prefix_tree.build: not prefix-free"
      in
      if Bitstring.get path i then Inner (zero, Some (go one (i + 1)))
      else Inner (Some (go zero (i + 1)), one)
    end
  in
  Some (go top 0)

let build ~seed entries =
  let paths = List.map fst entries in
  if not (Bitstring.prefix_free paths) then
    invalid_arg "Prefix_tree.build: paths are not prefix-free";
  let top =
    List.fold_left (fun acc (p, v) -> insert acc p v) None entries
  in
  { seed; entries; top }

let rec hash_node seed path = function
  | None -> blind_hash seed path
  | Some (Leaf v) -> leaf_hash v
  | Some (Inner (z, o)) ->
      node_hash
        (hash_node seed (Bitstring.append_bit path false) z)
        (hash_node seed (Bitstring.append_bit path true) o)

let root t = hash_node t.seed Bitstring.empty t.top

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
      let rec walk node prefix i acc =
        if i = n then List.rev acc
        else begin
          match node with
          | Some (Inner (z, o)) ->
              let bit = Bitstring.get path i in
              let child = if bit then o else z in
              let sib = if bit then z else o in
              let sib_path = Bitstring.append_bit prefix (not bit) in
              let sib_hash = hash_node t.seed sib_path sib in
              walk child (Bitstring.append_bit prefix bit) (i + 1)
                (sib_hash :: acc)
          | _ -> assert false (* [find] guaranteed the path exists *)
        end
      in
      Some (value, walk t.top Bitstring.empty 0 [])

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
