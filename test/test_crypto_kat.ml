(* Known-answer and differential tests for the fast-math crypto core.

   The fast paths introduced for the engine's per-epoch RSA/SHA-256 bill —
   Montgomery/fixed-window modular exponentiation, CRT signing, batch
   verification, precomputed-schedule and multi-buffer SHA-256, HMAC key
   midstates — must be byte-identical to the naive reference paths they
   replaced.  This suite pins them three ways:

   - FIPS 180-4 / RFC 4231 known answers, run against {e every} API
     variant (one-shot, reusable-ctx, multi-buffer, fixed-width template);
   - qcheck differential oracles against the retained naive paths
     ([Bigint.mod_pow_naive], [Rsa.sign_plain], per-item [Rsa.verify],
     [Commitment.commit_derived]);
   - forged-batch tests: [verify_batch] must reject {e exactly} the forged
     items, whatever mix of flipped bits, wrong keys and wrong messages. *)

module C = Pvr_crypto
module B = C.Bigint
module Obs = Pvr_obs

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let counted f =
  Obs.set_enabled true;
  let before = Obs.Snapshot.capture () in
  let result = f () in
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  Obs.set_enabled false;
  (result, d)

let delta d name = Obs.Snapshot.counter_value d name
let hex = C.Hex.encode

(* ---- SHA-256: FIPS 180-4 known answers on every API variant ------------- *)

(* FIPS 180-4 appendix vectors: one-block, empty, two-block (448-bit
   message, padding spills into a second block), and exact-block-boundary
   lengths where the padding rules switch branches. *)
let sha_kats =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( String.make 55 'a',
      "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318" );
    ( String.make 56 'a',
      "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a" );
    ( String.make 64 'a',
      "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb" );
    ( String.make 65 'a',
      "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0" );
  ]

let sha256_kat_oneshot () =
  List.iter (fun (m, d) -> check "digest" d (C.Sha256.digest_hex m)) sha_kats

let sha256_kat_reused_ctx () =
  (* One ctx serves every message in sequence: [digest_with] must reset
     state completely, leaving no residue from the previous message. *)
  let ctx = C.Sha256.init () in
  List.iter
    (fun (m, d) -> check "digest_with" d (hex (C.Sha256.digest_with ctx m)))
    sha_kats;
  (* And again in reverse order, reusing the same ctx. *)
  List.iter
    (fun (m, d) -> check "digest_with rev" d (hex (C.Sha256.digest_with ctx m)))
    (List.rev sha_kats)

let sha256_kat_multi_buffer () =
  let ctx = C.Sha256.init () in
  let digests = C.Sha256.digest_many ctx (List.map fst sha_kats) in
  List.iter2
    (fun (_, expected) got -> check "digest_many" expected (hex got))
    sha_kats digests

let sha256_kat_fixed_width () =
  List.iter
    (fun (m, d) ->
      let t = C.Sha256.Fixed.create (String.length m) in
      check_int "width" (String.length m) (C.Sha256.Fixed.width t);
      check "Fixed.digest" d (hex (C.Sha256.Fixed.digest t m)))
    sha_kats

let sha256_kat_parts () =
  (* [digest_parts] is length-framed (not plain concatenation), so the KAT
     here is reflexive: the reusable-ctx form must equal the one-shot form
     on every split, and distinct splits of the same bytes must differ. *)
  let ctx = C.Sha256.init () in
  List.iter
    (fun (m, _) ->
      let k = String.length m / 2 in
      let parts =
        [ String.sub m 0 k; String.sub m k (String.length m - k) ]
      in
      check "digest_parts_with ≡ digest_parts"
        (C.Sha256.digest_parts_hex parts)
        (hex (C.Sha256.digest_parts_with ctx parts)))
    sha_kats;
  check_bool "splits are framed" false
    (C.Sha256.digest_parts [ "ab"; "c" ] = C.Sha256.digest_parts [ "a"; "bc" ])

let sha256_kat_million_a_streaming () =
  (* FIPS 180-4: one million 'a's.  Fed through a streaming ctx in uneven
     chunks that straddle block boundaries, then the ctx is reused for a
     one-shot to prove finalize left it clean. *)
  let expected =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
  in
  let ctx = C.Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 997 do
    C.Sha256.update ctx chunk
  done;
  C.Sha256.update ctx (String.make 3000 'a');
  check "million a" expected (hex (C.Sha256.finalize ctx));
  check "ctx clean after finalize"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (hex (C.Sha256.digest_with ctx "abc"))

let sha256_block_boundary_updates () =
  (* The same 300-byte message split at every boundary around the 64-byte
     block edge must give one digest. *)
  let msg = String.init 300 (fun i -> Char.chr ((i * 7) mod 256)) in
  let whole = C.Sha256.digest msg in
  List.iter
    (fun cut ->
      let ctx = C.Sha256.init () in
      C.Sha256.update ctx (String.sub msg 0 cut);
      C.Sha256.update ctx (String.sub msg cut (String.length msg - cut));
      check_bool
        (Printf.sprintf "cut at %d" cut)
        true
        (C.Sha256.finalize ctx = whole))
    [ 1; 55; 56; 63; 64; 65; 119; 128; 200; 299 ]

let sha256_copy_midstate () =
  (* [copy] must fork the state: the original and the copy diverge
     independently from the shared prefix. *)
  let ctx = C.Sha256.init () in
  C.Sha256.update ctx "shared prefix|";
  let fork = C.Sha256.copy ctx in
  C.Sha256.update ctx "left";
  C.Sha256.update fork "right";
  check "left" (C.Sha256.digest_hex "shared prefix|left")
    (hex (C.Sha256.finalize ctx));
  check "right" (C.Sha256.digest_hex "shared prefix|right")
    (hex (C.Sha256.finalize fork))

let sha256_fixed_differential =
  qtest ~count:300 "Fixed.digest ≡ digest (random widths)"
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun m ->
      let t = C.Sha256.Fixed.create (String.length m) in
      C.Sha256.Fixed.digest t m = C.Sha256.digest m)

let sha256_many_differential =
  qtest ~count:100 "digest_many ≡ map digest"
    QCheck2.Gen.(list_size (int_range 0 8) (string_size (int_range 0 150)))
    (fun msgs ->
      let ctx = C.Sha256.init () in
      C.Sha256.digest_many ctx msgs = List.map C.Sha256.digest msgs)

(* ---- HMAC: RFC 4231 on both the one-shot and precomputed-key paths ------ *)

let hmac_vectors =
  [
    ( String.make 20 '\x0b',
      "Hi There",
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
    ( "Jefe",
      "what do ya want for nothing?",
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
    ( String.make 20 '\xaa',
      String.make 50 '\xdd',
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
    ( String.init 25 (fun i -> Char.chr (i + 1)),
      String.make 50 '\xcd',
      "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
    ( String.make 131 '\xaa',
      "Test Using Larger Than Block-Size Key - Hash Key First",
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
    ( String.make 131 '\xaa',
      "This is a test using a larger than block-size key and a larger than \
       block-size data. The key needs to be hashed before being used by the \
       HMAC algorithm.",
      "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
  ]

let hmac_rfc4231_both_paths () =
  List.iter
    (fun (key, msg, expected) ->
      check "mac" expected (C.Hmac.mac_hex ~key msg);
      let k = C.Hmac.Key.create key in
      check "mac_with" expected (hex (C.Hmac.mac_with k msg));
      (* The precomputed key is reusable: a second MAC through the same key
         must not perturb the midstates. *)
      check "mac_with reuse" expected (hex (C.Hmac.mac_with k msg)))
    hmac_vectors

let hmac_key_differential =
  qtest ~count:200 "mac_with (Key.create k) ≡ mac ~key"
    QCheck2.Gen.(pair (string_size (int_range 0 140)) string)
    (fun (key, msg) ->
      C.Hmac.mac_with (C.Hmac.Key.create key) msg = C.Hmac.mac ~key msg)

(* ---- Montgomery modular exponentiation vs the naive oracle -------------- *)

let big_gen bits =
  QCheck2.Gen.(
    map
      (fun seed -> B.random_bits (C.Drbg.of_int_seed seed) bits)
      (int_range 0 1_000_000))

let odd_modulus_gen =
  QCheck2.Gen.(
    map2
      (fun seed bits ->
        let m = B.random_odd_bits (C.Drbg.of_int_seed seed) bits in
        if B.compare m B.two >= 0 then m else B.of_int 3)
      (int_range 0 1_000_000) (int_range 2 320))

let mont_differential =
  qtest ~count:150 "Montgomery mod_pow ≡ square-and-multiply (odd moduli)"
    QCheck2.Gen.(triple (big_gen 256) (big_gen 64) odd_modulus_gen)
    (fun (base, exp, modulus) ->
      B.equal
        (B.mod_pow ~base ~exp ~modulus)
        (B.mod_pow_naive ~base ~exp ~modulus))

let mont_edge_cases () =
  let m = B.of_int 1_000_003 in
  check_bool "x^0 = 1" true (B.equal B.one (B.mod_pow ~base:(B.of_int 7) ~exp:B.zero ~modulus:m));
  check_bool "0^x = 0" true (B.is_zero (B.mod_pow ~base:B.zero ~exp:(B.of_int 9) ~modulus:m));
  check_bool "mod 1 = 0" true (B.is_zero (B.mod_pow ~base:(B.of_int 5) ~exp:(B.of_int 5) ~modulus:B.one));
  check_bool "base >= modulus reduced" true
    (B.equal
       (B.mod_pow ~base:(B.add m (B.of_int 2)) ~exp:(B.of_int 10) ~modulus:m)
       (B.mod_pow_naive ~base:(B.of_int 2) ~exp:(B.of_int 10) ~modulus:m));
  (match B.mod_pow ~base:B.one ~exp:B.one ~modulus:B.zero with
  | _ -> Alcotest.fail "expected Division_by_zero"
  | exception Division_by_zero -> ());
  (* Even moduli take the naive path under the dispatch; both routes agree. *)
  let even = B.of_int 1_000_000 in
  check_bool "even modulus" true
    (B.equal
       (B.mod_pow ~base:(B.of_int 123) ~exp:(B.of_int 77) ~modulus:even)
       (B.mod_pow_naive ~base:(B.of_int 123) ~exp:(B.of_int 77) ~modulus:even))

let mont_wide_base () =
  (* A multi-limb base wider than the modulus must be reduced before the
     Montgomery conversion and land on the naive oracle's value. *)
  let base = B.random_bits (C.Drbg.of_int_seed 7) 200 in
  let exp = B.random_bits (C.Drbg.of_int_seed 8) 64 in
  let modulus = B.random_odd_bits (C.Drbg.of_int_seed 9) 192 in
  check_bool "wide base ≡ naive" true
    (B.equal
       (B.mod_pow ~base ~exp ~modulus)
       (B.mod_pow_naive ~base ~exp ~modulus))

(* ---- RSA: CRT signing and batch verification vs per-item oracles -------- *)

(* Keygen dominates: two fixed 512-bit keys serve the whole section, and a
   single 1024-bit key pins the production width. *)
let key_a = lazy (C.Rsa.generate (C.Drbg.of_int_seed 1001) ~bits:512)
let key_b = lazy (C.Rsa.generate (C.Drbg.of_int_seed 1002) ~bits:512)
let key_big = lazy (C.Rsa.generate (C.Drbg.of_int_seed 1003) ~bits:1024)

let crt_sign_differential =
  qtest ~count:25 "CRT sign ≡ plain x^d mod n"
    QCheck2.Gen.(string_size (int_range 0 100))
    (fun msg ->
      let key = Lazy.force key_a in
      C.Rsa.sign key msg = C.Rsa.sign_plain key msg)

let crt_sign_1024 () =
  let key = Lazy.force key_big in
  let s = C.Rsa.sign key "production width" in
  check_bool "CRT = plain at 1024 bits" true
    (s = C.Rsa.sign_plain key "production width");
  check_bool "verifies" true
    (C.Rsa.verify key.C.Rsa.pub ~msg:"production width" ~signature:s)

(* A batch mixing two keys, duplicate entries, and per-item forgeries
   chosen by [forge]: 0 = valid, 1 = flipped signature bit, 2 = wrong key,
   3 = wrong message. *)
let build_batch plan =
  List.mapi
    (fun i forge ->
      let key, other =
        if i mod 2 = 0 then (Lazy.force key_a, Lazy.force key_b)
        else (Lazy.force key_b, Lazy.force key_a)
      in
      let msg = Printf.sprintf "batch item %d" (i / 3) in
      let signature = C.Rsa.sign key msg in
      match forge with
      | 0 -> (key.C.Rsa.pub, msg, signature)
      | 1 ->
          let b = Bytes.of_string signature in
          Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0x10));
          (key.C.Rsa.pub, msg, Bytes.to_string b)
      | 2 -> (other.C.Rsa.pub, msg, signature)
      | _ -> (key.C.Rsa.pub, msg ^ "!", signature))
    plan

let batch_differential =
  qtest ~count:40 "verify_batch ≡ per-item verify (mixed forgeries)"
    QCheck2.Gen.(list_size (int_range 0 12) (int_bound 3))
    (fun plan ->
      let batch = build_batch plan in
      C.Rsa.verify_batch batch
      = List.map
          (fun (pub, msg, signature) -> C.Rsa.verify pub ~msg ~signature)
          batch)

let batch_rejects_exactly_forged () =
  (* Deterministic spot check: the verdict list flags exactly the forged
     positions, so a screening failure can never smear across a batch. *)
  let plan = [ 0; 1; 0; 2; 0; 3; 0; 0 ] in
  let verdicts = C.Rsa.verify_batch (build_batch plan) in
  Alcotest.(check (list bool))
    "forged mask"
    (List.map (fun f -> f = 0) plan)
    verdicts;
  check_bool "empty batch" true (C.Rsa.verify_batch [] = [])

let batch_screening_and_dedup_counters () =
  let key = Lazy.force key_a in
  let sig_of m = C.Rsa.sign key m in
  let item m = (key.C.Rsa.pub, m, sig_of m) in
  (* All-valid same-key batch with one duplicate: one screening
     exponentiation covers the group, the duplicate costs nothing. *)
  let (verdicts, d) =
    counted (fun () -> C.Rsa.verify_batch [ item "x"; item "y"; item "x" ])
  in
  Alcotest.(check (list bool)) "all accepted" [ true; true; true ] verdicts;
  check_int "deduped" 1 (delta d "crypto.rsa.verify_batch.deduped");
  check_int "screened" 2 (delta d "crypto.rsa.verify_batch.screened");
  check_int "no fallback" 0 (delta d "crypto.rsa.verify_batch.fallbacks");
  check_int "no per-item verify" 0 (delta d "crypto.rsa.verify.ops");
  (* One forged item: screening fails, the fallback isolates it. *)
  let forged = (key.C.Rsa.pub, "z", sig_of "not z") in
  let (verdicts, d) =
    counted (fun () -> C.Rsa.verify_batch [ item "x"; forged ])
  in
  Alcotest.(check (list bool)) "forged isolated" [ true; false ] verdicts;
  check_bool "fallback taken" true
    (delta d "crypto.rsa.verify_batch.fallbacks" > 0)

let batch_structural_rejects () =
  let key = Lazy.force key_a in
  let good = (key.C.Rsa.pub, "ok", C.Rsa.sign key "ok") in
  let wrong_len = (key.C.Rsa.pub, "ok", "short") in
  let too_big =
    (key.C.Rsa.pub, "ok", String.make (C.Rsa.key_size key.C.Rsa.pub) '\xff')
  in
  Alcotest.(check (list bool))
    "structural misfits rejected without smearing" [ true; false; false ]
    (C.Rsa.verify_batch [ good; wrong_len; too_big ])

(* ---- Commitment cache vs the uncached derived-commitment oracle --------- *)

let cache_matches_commit_derived =
  qtest ~count:150 "Cache.commit ≡ commit_derived (incl. 1-byte fast path)"
    QCheck2.Gen.(
      triple (string_size (int_range 1 24)) (string_size (int_range 0 40))
        (oneof [ string_size (int_range 0 5); oneofl [ "0"; "1" ] ]))
    (fun (key, context, value) ->
      let cache = C.Commitment.Cache.create ~key () in
      let c1, o1 = C.Commitment.Cache.commit cache ~context value in
      let c2, o2 = C.Commitment.commit_derived ~key ~context value in
      (c1 :> string) = (c2 :> string)
      && o1.C.Commitment.nonce = o2.C.Commitment.nonce
      && o1.C.Commitment.value = o2.C.Commitment.value)

let vector_matches_per_bit () =
  let mk () = C.Commitment.Cache.create ~key:"vec-salt" () in
  let ctx i = Printf.sprintf "p|q|%d" (i + 1) in
  let bits = [ false; false; true; true; true ] in
  let per_bit =
    let c = mk () in
    List.mapi (fun i b -> C.Commitment.Cache.commit_bit c ~context:(ctx i) b) bits
  in
  let vectored =
    C.Commitment.Cache.commit_bit_vector (mk ()) ~vertex:"p|q" ~context:ctx bits
  in
  List.iter2
    (fun (c1, o1) (c2, o2) ->
      check "commitment" (C.Commitment.to_hex c1) (C.Commitment.to_hex c2);
      check "nonce" o1.C.Commitment.nonce o2.C.Commitment.nonce)
    per_bit vectored

let vector_hit_accounting () =
  let cache = C.Commitment.Cache.create ~key:"vh-salt" () in
  let ctx i = Printf.sprintf "v|%d" i in
  let bits = [ true; false; true; false ] in
  let commit () =
    C.Commitment.Cache.commit_bit_vector cache ~vertex:"v" ~context:ctx bits
  in
  let first, d1 = counted commit in
  check_int "first pass misses per bit" 4
    (delta d1 "crypto.commitment.cache.misses");
  check_int "no vector hit yet" 0 (delta d1 "crypto.commitment.cache.vector.hits");
  let second, d2 = counted commit in
  check_int "vector hit" 1 (delta d2 "crypto.commitment.cache.vector.hits");
  check_int "counts one hit per bit" 4 (delta d2 "crypto.commitment.cache.hits");
  check_int "no sha256 on a vector hit" 0 (delta d2 "crypto.sha256.ops");
  List.iter2
    (fun (c1, _) (c2, _) ->
      check "stable" (C.Commitment.to_hex c1) (C.Commitment.to_hex c2))
    first second;
  (* A different vertex with the same bit pattern misses the vector memo
     but hits per-bit entries only if its contexts collide — they must not. *)
  let other, d3 =
    counted (fun () ->
        C.Commitment.Cache.commit_bit_vector cache ~vertex:"w"
          ~context:(fun i -> Printf.sprintf "w|%d" i)
          bits)
  in
  check_int "distinct vertex misses" 4 (delta d3 "crypto.commitment.cache.misses");
  List.iter2
    (fun (c1, _) (c2, _) ->
      check_bool "contexts separate vertices" false
        (C.Commitment.to_hex c1 = C.Commitment.to_hex c2))
    first other

let rotation_invalidates () =
  let cache = C.Commitment.Cache.create ~period:3 ~key:"salt-3" () in
  check_int "period" 3 (C.Commitment.Cache.period cache);
  let c1, _ = C.Commitment.Cache.commit_bit cache ~context:"x" true in
  let (_ : C.Commitment.commitment * C.Commitment.opening) =
    C.Commitment.Cache.commit_bit_vector cache ~vertex:"v"
      ~context:(fun _ -> "y") [ true ]
    |> List.hd
  in
  check_bool "warm" true (C.Commitment.Cache.size cache > 0);
  (* Same period and key: a no-op, entries survive. *)
  C.Commitment.Cache.rotate cache ~period:3 ~key:"salt-3";
  let (_, d) =
    counted (fun () -> C.Commitment.Cache.commit_bit cache ~context:"x" true)
  in
  check_int "no-op rotation keeps entries" 1
    (delta d "crypto.commitment.cache.hits");
  (* New period: everything (both memo levels) is dropped and re-keyed. *)
  C.Commitment.Cache.rotate cache ~period:4 ~key:"salt-4";
  check_int "rotated period" 4 (C.Commitment.Cache.period cache);
  check_int "rotation clears" 0 (C.Commitment.Cache.size cache);
  let c2, d = counted (fun () -> C.Commitment.Cache.commit_bit cache ~context:"x" true) in
  check_int "recomputes after rotation" 1
    (delta d "crypto.commitment.cache.misses");
  check_bool "new salt, new commitment" false
    (C.Commitment.to_hex c1 = C.Commitment.to_hex (fst c2));
  check_bool "matches uncached oracle" true
    (C.Commitment.to_hex (fst c2)
    = C.Commitment.to_hex
        (fst (C.Commitment.commit_derived ~key:"salt-4" ~context:"x" "1")))

let suite =
  [
    ("sha256 FIPS 180-4 KATs: one-shot", `Quick, sha256_kat_oneshot);
    ("sha256 FIPS 180-4 KATs: reused ctx", `Quick, sha256_kat_reused_ctx);
    ("sha256 FIPS 180-4 KATs: multi-buffer", `Quick, sha256_kat_multi_buffer);
    ("sha256 FIPS 180-4 KATs: fixed-width", `Quick, sha256_kat_fixed_width);
    ("sha256 FIPS 180-4 KATs: parts", `Quick, sha256_kat_parts);
    ("sha256 million-a streaming", `Slow, sha256_kat_million_a_streaming);
    ("sha256 block-boundary updates", `Quick, sha256_block_boundary_updates);
    ("sha256 copy forks midstate", `Quick, sha256_copy_midstate);
    sha256_fixed_differential;
    sha256_many_differential;
    ("hmac RFC 4231 both paths", `Quick, hmac_rfc4231_both_paths);
    hmac_key_differential;
    mont_differential;
    ("mod_pow edge cases", `Quick, mont_edge_cases);
    ("mod_pow wide base ≡ naive", `Quick, mont_wide_base);
    crt_sign_differential;
    ("CRT sign at 1024 bits", `Slow, crt_sign_1024);
    batch_differential;
    ("verify_batch rejects exactly forged", `Quick, batch_rejects_exactly_forged);
    ( "verify_batch screening/dedup counters",
      `Quick,
      batch_screening_and_dedup_counters );
    ("verify_batch structural rejects", `Quick, batch_structural_rejects);
    cache_matches_commit_derived;
    ("vector commit ≡ per-bit", `Quick, vector_matches_per_bit);
    ("vector hit accounting", `Quick, vector_hit_accounting);
    ("salt rotation invalidates cache", `Quick, rotation_invalidates);
  ]
