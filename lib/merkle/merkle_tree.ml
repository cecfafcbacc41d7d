module H = Pvr_crypto.Sha256
module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

(* Domain-separated hashing prevents leaf/node confusion attacks. *)
let leaf_hash v = H.digest ("mt-leaf:" ^ v)
let node_hash l r = H.digest ("mt-node:" ^ l ^ r)
let empty_root = H.digest "mt-empty"

type t = { levels : string array array; n : int }
(* [levels.(0)] are leaf hashes; each higher level pairs the one below.  An
   odd node is promoted by hashing with itself (Bitcoin-style duplication is
   avoided: we carry the node up unchanged to keep proofs minimal). *)

let build leaves =
  let n = List.length leaves in
  if n = 0 then { levels = [| [||] |]; n = 0 }
  else begin
    let level0 = Array.of_list (List.map leaf_hash leaves) in
    let rec up acc level =
      if Array.length level <= 1 then List.rev (level :: acc)
      else begin
        let m = Array.length level in
        let next =
          Array.init ((m + 1) / 2) (fun i ->
              if (2 * i) + 1 < m then node_hash level.(2 * i) level.((2 * i) + 1)
              else level.(2 * i))
        in
        up (level :: acc) next
      end
    in
    { levels = Array.of_list (up [] level0); n }
  end

let root t =
  if t.n = 0 then empty_root
  else begin
    let top = t.levels.(Array.length t.levels - 1) in
    top.(0)
  end

let size t = t.n

type proof = { index : int; path : (string * [ `Left | `Right ]) list }

let prove t index =
  if index < 0 || index >= t.n then invalid_arg "Merkle_tree.prove: index";
  let path = ref [] in
  let i = ref index in
  for level = 0 to Array.length t.levels - 2 do
    let nodes = t.levels.(level) in
    let sibling = if !i mod 2 = 0 then !i + 1 else !i - 1 in
    if sibling < Array.length nodes then
      path :=
        (nodes.(sibling), if sibling < !i then `Left else `Right) :: !path;
    i := !i / 2
  done;
  { index; path = List.rev !path }

let verify ~root:expected ~leaf proof =
  let acc = ref (leaf_hash leaf) in
  List.iter
    (fun (sib, side) ->
      acc :=
        match side with
        | `Left -> node_hash sib !acc
        | `Right -> node_hash !acc sib)
    proof.path;
  BU.equal_ct !acc expected

let encode_proof p =
  Codec.encode_list
    (BU.be32 p.index
    :: List.map
         (fun (h, side) -> (match side with `Left -> "L" | `Right -> "R") ^ h)
         p.path)

let decode_proof s =
  let step item =
    if String.length item <> 33 then Codec.malformed "proof step";
    let side =
      match item.[0] with
      | 'L' -> `Left
      | 'R' -> `Right
      | _ -> Codec.malformed "proof side"
    in
    (String.sub item 1 32, side)
  in
  Codec.decode_list s (function
    | idx :: rest -> { index = Codec.u32_item idx; path = List.map step rest }
    | [] -> Codec.malformed "empty proof")
