(* Tests for pvr_merkle: bitstrings, dense Merkle trees, and the §3.6
   prefix-free selective-disclosure tree. *)

module M = Pvr_merkle
module C = Pvr_crypto

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Bitstring ------------------------------------------------------------ *)

let bitstring_basics () =
  let b = M.Bitstring.of_string "0110" in
  check_int "length" 4 (M.Bitstring.length b);
  check_bool "get 0" false (M.Bitstring.get b 0);
  check_bool "get 1" true (M.Bitstring.get b 1);
  check_bool "roundtrip" true
    (M.Bitstring.to_string (M.Bitstring.of_bools [ false; true; true; false ])
    = "0110")

let bitstring_of_string_rejects () =
  Alcotest.check_raises "bad char"
    (Invalid_argument "Bitstring.of_string: expected only '0'/'1'") (fun () ->
      ignore (M.Bitstring.of_string "012"))

let bitstring_of_id_width () =
  check_int "id width" M.Bitstring.id_width
    (M.Bitstring.length (M.Bitstring.of_id "anything"))

let bitstring_of_id_deterministic () =
  check_bool "same id same path" true
    (M.Bitstring.equal (M.Bitstring.of_id "x") (M.Bitstring.of_id "x"));
  check_bool "distinct ids distinct paths" true
    (not (M.Bitstring.equal (M.Bitstring.of_id "x") (M.Bitstring.of_id "y")))

let bitstring_prefix () =
  let p = M.Bitstring.of_string in
  check_bool "prefix" true (M.Bitstring.is_prefix (p "01") (p "0110"));
  check_bool "not prefix" false (M.Bitstring.is_prefix (p "11") (p "0110"));
  check_bool "equal is prefix" true (M.Bitstring.is_prefix (p "01") (p "01"));
  check_bool "longer not prefix" false (M.Bitstring.is_prefix (p "0110") (p "01"))

let bitstring_prefix_free () =
  let p = M.Bitstring.of_string in
  check_bool "free" true (M.Bitstring.prefix_free [ p "00"; p "01"; p "1" ]);
  check_bool "violated" false (M.Bitstring.prefix_free [ p "0"; p "01" ]);
  check_bool "duplicates violate" false (M.Bitstring.prefix_free [ p "01"; p "01" ]);
  check_bool "empty set" true (M.Bitstring.prefix_free [])

let bitstring_fixed_width_prefix_free =
  qtest "fixed-width ids are prefix-free"
    QCheck2.Gen.(list_size (int_range 2 20) (string_size (int_range 1 8)))
    (fun ids ->
      let ids = List.sort_uniq String.compare ids in
      M.Bitstring.prefix_free (List.map M.Bitstring.of_id ids))

(* ---- Merkle tree ------------------------------------------------------------ *)

let merkle_all_leaves_provable () =
  List.iter
    (fun n ->
      let leaves = List.init n (fun i -> "leaf" ^ string_of_int i) in
      let t = M.Merkle_tree.build leaves in
      check_int "size" n (M.Merkle_tree.size t);
      List.iteri
        (fun i leaf ->
          let p = M.Merkle_tree.prove t i in
          check_bool "proof verifies" true
            (M.Merkle_tree.verify ~root:(M.Merkle_tree.root t) ~leaf p))
        leaves)
    [ 1; 2; 3; 7; 8; 9; 64; 100 ]

let merkle_rejects_wrong_leaf () =
  let t = M.Merkle_tree.build [ "a"; "b"; "c" ] in
  let p = M.Merkle_tree.prove t 1 in
  check_bool "wrong leaf" false
    (M.Merkle_tree.verify ~root:(M.Merkle_tree.root t) ~leaf:"x" p)

let merkle_rejects_wrong_root () =
  let t = M.Merkle_tree.build [ "a"; "b"; "c" ] in
  let t2 = M.Merkle_tree.build [ "a"; "b"; "d" ] in
  let p = M.Merkle_tree.prove t 0 in
  check_bool "different trees, different roots" true
    (M.Merkle_tree.root t <> M.Merkle_tree.root t2);
  check_bool "cross-root proof fails for changed leafset" true
    (* leaf 0 is "a" in both trees, but the roots differ, so the proof from
       t cannot verify against t2's root *)
    (not (M.Merkle_tree.verify ~root:(M.Merkle_tree.root t2) ~leaf:"a" p))

let merkle_proof_is_positional () =
  (* The same value at two positions yields distinct proofs that do not
     cross-verify at the wrong index semantics. *)
  let t = M.Merkle_tree.build [ "same"; "same" ] in
  let p0 = M.Merkle_tree.prove t 0 and p1 = M.Merkle_tree.prove t 1 in
  check_bool "indices differ" true (p0.M.Merkle_tree.index <> p1.M.Merkle_tree.index);
  check_bool "both verify" true
    (M.Merkle_tree.verify ~root:(M.Merkle_tree.root t) ~leaf:"same" p0
    && M.Merkle_tree.verify ~root:(M.Merkle_tree.root t) ~leaf:"same" p1)

let merkle_empty () =
  let t = M.Merkle_tree.build [] in
  check_int "size 0" 0 (M.Merkle_tree.size t);
  check_bool "distinguished root" true
    (M.Merkle_tree.root t <> M.Merkle_tree.root (M.Merkle_tree.build [ "" ]))

let merkle_out_of_range () =
  let t = M.Merkle_tree.build [ "a" ] in
  Alcotest.check_raises "negative" (Invalid_argument "Merkle_tree.prove: index")
    (fun () -> ignore (M.Merkle_tree.prove t (-1)));
  Alcotest.check_raises "too big" (Invalid_argument "Merkle_tree.prove: index")
    (fun () -> ignore (M.Merkle_tree.prove t 1))

let merkle_proof_encoding_roundtrip =
  qtest "proof encoding roundtrip"
    QCheck2.Gen.(pair (int_range 1 50) (int_range 0 1_000_000))
    (fun (n, salt) ->
      let leaves = List.init n (fun i -> Printf.sprintf "%d-%d" salt i) in
      let t = M.Merkle_tree.build leaves in
      let i = salt mod n in
      let p = M.Merkle_tree.prove t i in
      match M.Merkle_tree.decode_proof (M.Merkle_tree.encode_proof p) with
      | None -> false
      | Some p' ->
          M.Merkle_tree.verify ~root:(M.Merkle_tree.root t)
            ~leaf:(List.nth leaves i) p')

let merkle_decode_garbage () =
  check_bool "empty" true (M.Merkle_tree.decode_proof "" = None);
  check_bool "junk" true (M.Merkle_tree.decode_proof "garbage!" = None)

let merkle_leaf_order_matters () =
  check_bool "order changes root" true
    (M.Merkle_tree.root (M.Merkle_tree.build [ "a"; "b" ])
    <> M.Merkle_tree.root (M.Merkle_tree.build [ "b"; "a" ]))

(* ---- Prefix tree ------------------------------------------------------------ *)

let entries n = List.init n (fun i -> (M.Bitstring.of_id ("v" ^ string_of_int i), "payload" ^ string_of_int i))

let prefix_tree_prove_verify () =
  let es = entries 25 in
  let t = M.Prefix_tree.build ~seed:"secret" es in
  let root = M.Prefix_tree.root t in
  check_int "cardinal" 25 (M.Prefix_tree.cardinal t);
  List.iter
    (fun (path, value) ->
      match M.Prefix_tree.prove t path with
      | None -> Alcotest.fail "expected proof"
      | Some (v, proof) ->
          check_bool "value matches" true (v = value);
          check_bool "verifies" true
            (M.Prefix_tree.verify ~root ~path ~value proof);
          check_bool "wrong value rejected" false
            (M.Prefix_tree.verify ~root ~path ~value:"forged" proof))
    es

let prefix_tree_absent () =
  let t = M.Prefix_tree.build ~seed:"s" (entries 5) in
  check_bool "absent" true (M.Prefix_tree.prove t (M.Bitstring.of_id "nope") = None);
  check_bool "mem" false (M.Prefix_tree.mem t (M.Bitstring.of_id "nope"));
  check_bool "find" true (M.Prefix_tree.find t (M.Bitstring.of_id "v1") = Some "payload1")

let prefix_tree_rejects_non_prefix_free () =
  let p = M.Bitstring.of_string in
  Alcotest.check_raises "not prefix free"
    (Invalid_argument "Prefix_tree.build: paths are not prefix-free") (fun () ->
      ignore (M.Prefix_tree.build ~seed:"s" [ (p "0", "a"); (p "01", "b") ]))

let prefix_tree_rejects_duplicates () =
  let p = M.Bitstring.of_string in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Prefix_tree.build: paths are not prefix-free") (fun () ->
      ignore (M.Prefix_tree.build ~seed:"s" [ (p "01", "a"); (p "01", "b") ]))

let prefix_tree_proof_length () =
  let es = entries 10 in
  let t = M.Prefix_tree.build ~seed:"s" es in
  match M.Prefix_tree.prove t (fst (List.hd es)) with
  | Some (_, proof) ->
      check_int "one sibling per bit" M.Bitstring.id_width
        (M.Prefix_tree.proof_length proof)
  | None -> Alcotest.fail "expected proof"

let prefix_tree_cross_proof_rejected () =
  (* A proof for one path cannot authenticate a different path. *)
  let es = entries 4 in
  let t = M.Prefix_tree.build ~seed:"s" es in
  let root = M.Prefix_tree.root t in
  let p0, v0 = List.nth es 0 and p1, _ = List.nth es 1 in
  match M.Prefix_tree.prove t p0 with
  | Some (_, proof) ->
      check_bool "cross path" false
        (M.Prefix_tree.verify ~root ~path:p1 ~value:v0 proof)
  | None -> Alcotest.fail "expected proof"

let prefix_tree_structural_privacy () =
  (* The proof for a vertex must not change observably when an unrelated
     vertex is added or removed — beyond the (expected) root change, every
     sibling on the disclosed path that is not an ancestor of the other
     vertex is a blinded digest.  We check the weaker, behavioural property:
     proofs from trees with different co-populations have the same length
     and still verify only against their own root. *)
  let base = entries 3 in
  let t1 = M.Prefix_tree.build ~seed:"s" base in
  let t2 = M.Prefix_tree.build ~seed:"s" (entries 7) in
  let path, value = List.hd base in
  match (M.Prefix_tree.prove t1 path, M.Prefix_tree.prove t2 path) with
  | Some (_, pr1), Some (_, pr2) ->
      check_int "same proof shape" (M.Prefix_tree.proof_length pr1)
        (M.Prefix_tree.proof_length pr2);
      check_bool "no cross verification" false
        (M.Prefix_tree.verify ~root:(M.Prefix_tree.root t2) ~path ~value pr1)
  | _ -> Alcotest.fail "expected proofs"

let prefix_tree_blinding_seed_changes_root () =
  let es = entries 3 in
  check_bool "seed changes root" true
    (M.Prefix_tree.root (M.Prefix_tree.build ~seed:"a" es)
    <> M.Prefix_tree.root (M.Prefix_tree.build ~seed:"b" es))

let prefix_tree_proof_encoding_roundtrip () =
  let es = entries 6 in
  let t = M.Prefix_tree.build ~seed:"s" es in
  let root = M.Prefix_tree.root t in
  let path, value = List.nth es 3 in
  match M.Prefix_tree.prove t path with
  | Some (_, proof) -> begin
      match M.Prefix_tree.decode_proof (M.Prefix_tree.encode_proof proof) with
      | Some proof' ->
          check_bool "verifies after roundtrip" true
            (M.Prefix_tree.verify ~root ~path ~value proof')
      | None -> Alcotest.fail "decode failed"
    end
  | None -> Alcotest.fail "expected proof"

(* The commitment bytes a prover signs and discloses, pinned for a fixed
   tree: the root (hex), the SHA-256 of one encoded disclosure proof, and
   the root of the empty tree (a bare blinded digest).  Any change to how
   the tree is hashed must leave all three where they are. *)
let prefix_tree_commitment_pinned () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun i ->
           Printf.sprintf "%02x" (Char.code s.[i])))
  in
  let es = entries 9 in
  let t = M.Prefix_tree.build ~seed:"pin" es in
  Alcotest.(check string) "root"
    "fab2da2cc226050c4f76a5c58d5676ea97f197d46454899c0585cce23ad9f6ce"
    (hex (M.Prefix_tree.root t));
  (match M.Prefix_tree.prove t (fst (List.nth es 4)) with
  | Some (_, proof) ->
      Alcotest.(check string) "proof bytes"
        "dbc62dc1b810c725639e43f38bbe0046c35bdfa04945e307f8ae1119136b2c25"
        (C.Sha256.digest_hex (M.Prefix_tree.encode_proof proof))
  | None -> Alcotest.fail "expected proof");
  Alcotest.(check string) "empty root"
    "8107ff0c69e4626c67c7514dde5a7c068f2c6fefe0664a0a871ab500431ead94"
    (hex (M.Prefix_tree.root (M.Prefix_tree.build ~seed:"pin" [])))

(* [build] hashes every node once; disclosing a path then only reads
   the sibling digests it stored. *)
let prefix_tree_prove_hashes_nothing () =
  let es = entries 12 in
  let t = M.Prefix_tree.build ~seed:"s" es in
  Pvr_obs.set_enabled true;
  let before = Pvr_obs.Snapshot.capture () in
  List.iter (fun (path, _) -> ignore (M.Prefix_tree.prove t path)) es;
  ignore (M.Prefix_tree.root t);
  let d =
    Pvr_obs.Snapshot.diff ~before ~after:(Pvr_obs.Snapshot.capture ())
  in
  Pvr_obs.set_enabled false;
  check_int "sha256 ops" 0
    (Pvr_obs.Snapshot.counter_value d "crypto.sha256.ops")

let prefix_tree_random_population =
  qtest "random populations all provable" ~count:25
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 1_000_000))
    (fun (n, salt) ->
      let es =
        List.init n (fun i ->
            (M.Bitstring.of_id (Printf.sprintf "%d/%d" salt i), string_of_int i))
      in
      let t = M.Prefix_tree.build ~seed:(string_of_int salt) es in
      let root = M.Prefix_tree.root t in
      List.for_all
        (fun (path, value) ->
          match M.Prefix_tree.prove t path with
          | Some (v, proof) ->
              v = value && M.Prefix_tree.verify ~root ~path ~value proof
          | None -> false)
        es)

let suite =
  [
    ("bitstring basics", `Quick, bitstring_basics);
    ("bitstring of_string rejects", `Quick, bitstring_of_string_rejects);
    ("bitstring of_id width", `Quick, bitstring_of_id_width);
    ("bitstring of_id deterministic", `Quick, bitstring_of_id_deterministic);
    ("bitstring prefix", `Quick, bitstring_prefix);
    ("bitstring prefix-free", `Quick, bitstring_prefix_free);
    bitstring_fixed_width_prefix_free;
    ("merkle all leaves provable", `Quick, merkle_all_leaves_provable);
    ("merkle rejects wrong leaf", `Quick, merkle_rejects_wrong_leaf);
    ("merkle rejects wrong root", `Quick, merkle_rejects_wrong_root);
    ("merkle proof is positional", `Quick, merkle_proof_is_positional);
    ("merkle empty tree", `Quick, merkle_empty);
    ("merkle out of range", `Quick, merkle_out_of_range);
    merkle_proof_encoding_roundtrip;
    ("merkle decode garbage", `Quick, merkle_decode_garbage);
    ("merkle leaf order matters", `Quick, merkle_leaf_order_matters);
    ("prefix tree prove/verify", `Quick, prefix_tree_prove_verify);
    ("prefix tree absent", `Quick, prefix_tree_absent);
    ("prefix tree rejects non-prefix-free", `Quick, prefix_tree_rejects_non_prefix_free);
    ("prefix tree rejects duplicates", `Quick, prefix_tree_rejects_duplicates);
    ("prefix tree proof length", `Quick, prefix_tree_proof_length);
    ("prefix tree cross-proof rejected", `Quick, prefix_tree_cross_proof_rejected);
    ("prefix tree structural privacy", `Quick, prefix_tree_structural_privacy);
    ("prefix tree blinding seed", `Quick, prefix_tree_blinding_seed_changes_root);
    ("prefix tree proof encoding roundtrip", `Quick, prefix_tree_proof_encoding_roundtrip);
    prefix_tree_random_population;
    ("prefix tree commitment pinned", `Quick, prefix_tree_commitment_pinned);
    ("prefix tree prove hashes nothing", `Quick,
     prefix_tree_prove_hashes_nothing);
  ]
