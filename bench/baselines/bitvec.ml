module C = Pvr_crypto
module Merkle = Merkle_tree

type strategy = Per_bit | Merkle_vector

let strategy_to_string = function
  | Per_bit -> "per-bit"
  | Merkle_vector -> "merkle-vector"

type t = {
  strategy : strategy;
  openings : C.Commitment.opening array;
  digests : string array;
  tree : Merkle.t option; (* Merkle_vector only *)
}

type published = string list

type bit_proof = {
  bp_opening : C.Commitment.opening;
  bp_path : Merkle.proof option;
}

let commit rng strategy bits =
  let committed = List.map (C.Commitment.commit_bit rng) bits in
  let digests =
    Array.of_list
      (List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string)) committed)
  in
  let openings = Array.of_list (List.map snd committed) in
  match strategy with
  | Per_bit ->
      ({ strategy; openings; digests; tree = None }, Array.to_list digests)
  | Merkle_vector ->
      let tree = Merkle.build (Array.to_list digests) in
      ( { strategy; openings; digests; tree = Some tree },
        [ Merkle.root tree ] )

let published_bytes p = List.fold_left (fun acc s -> acc + String.length s) 0 p

let open_bit t index =
  if index < 1 || index > Array.length t.openings then
    invalid_arg "Bitvec.open_bit: index out of range";
  let bp_opening = t.openings.(index - 1) in
  match t.tree with
  | None -> { bp_opening; bp_path = None }
  | Some tree ->
      (* The Merkle leaf is the bit's commitment digest; the verifier
         recomputes it from the opening. *)
      { bp_opening; bp_path = Some (Merkle.prove tree (index - 1)) }

let proof_bytes proof =
  let opening_bytes =
    String.length proof.bp_opening.C.Commitment.value
    + String.length proof.bp_opening.C.Commitment.nonce
  in
  opening_bytes
  +
  match proof.bp_path with
  | None -> 0
  | Some p -> String.length (Merkle.encode_proof p)

let verify_bit strategy published ~k ~index proof =
  if index < 1 || index > k then None
  else begin
    let digest_of_opening () =
      (C.Commitment.commit_with_nonce
         ~nonce:proof.bp_opening.C.Commitment.nonce
         proof.bp_opening.C.Commitment.value
        :> string)
    in
    match (strategy, published, proof.bp_path) with
    | Per_bit, digests, None ->
        if List.length digests <> k then None
        else begin
          let c = List.nth digests (index - 1) in
          if
            String.length c = 32
            && C.Commitment.verify (C.Commitment.of_raw c) proof.bp_opening
          then C.Commitment.opening_bit proof.bp_opening
          else None
        end
    | Merkle_vector, [ root ], Some path ->
        if
          path.Merkle.index = index - 1
          && String.length proof.bp_opening.C.Commitment.nonce = 32
          && Merkle.verify ~root ~leaf:(digest_of_opening ()) path
        then C.Commitment.opening_bit proof.bp_opening
        else None
    | _ -> None
  end
