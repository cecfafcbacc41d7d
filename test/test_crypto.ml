(* Tests for pvr_crypto: hashes, MACs, the stream cipher, the DRBG, bignum
   arithmetic, primality, RSA, ring signatures, and commitments. *)

module C = Pvr_crypto
module B = C.Bigint

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- SHA-256 (FIPS 180-4 known answers) --------------------------------- *)

let sha256_known () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (input, expected) -> check "digest" expected (C.Sha256.digest_hex input))
    cases

let sha256_incremental () =
  (* Same digest regardless of how the input is chunked. *)
  let input = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  let whole = C.Sha256.digest input in
  List.iter
    (fun chunk ->
      let ctx = C.Sha256.init () in
      let rec feed pos =
        if pos < String.length input then begin
          let n = min chunk (String.length input - pos) in
          C.Sha256.update ctx (String.sub input pos n);
          feed (pos + n)
        end
      in
      feed 0;
      check_bool "chunked" true (C.Sha256.finalize ctx = whole))
    [ 1; 3; 63; 64; 65; 128; 999 ]

let sha256_sensitivity =
  qtest "sha256 avalanche: distinct inputs, distinct digests"
    QCheck2.Gen.(pair string string)
    (fun (a, b) -> a = b || C.Sha256.digest a <> C.Sha256.digest b)

(* ---- HMAC (RFC 4231) ----------------------------------------------------- *)

let hmac_rfc4231 () =
  check "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (C.Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  check "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (C.Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  check "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (C.Hmac.mac_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let hmac_long_key () =
  (* Keys longer than one block are hashed down (RFC 4231 case 6). *)
  check "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (C.Hmac.mac_hex
       ~key:(String.make 131 '\xaa')
       "Test Using Larger Than Block-Size Key - Hash Key First")

let hmac_verify () =
  let key = "secret" and msg = "message" in
  let tag = C.Hmac.mac ~key msg in
  check_bool "accepts" true (C.Hmac.verify ~key msg ~tag);
  check_bool "rejects bad tag" false
    (C.Hmac.verify ~key msg ~tag:(String.make 32 '\x00'));
  check_bool "rejects bad key" false (C.Hmac.verify ~key:"other" msg ~tag)

(* ---- ChaCha20 (RFC 8439) -------------------------------------------------- *)

let chacha_block_vector () =
  let key = C.Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = C.Hex.decode "000000090000004a00000000" in
  let block = C.Chacha20.block ~key ~counter:1 ~nonce in
  check "rfc8439 2.3.2"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (C.Hex.encode block)

let chacha_roundtrip () =
  let key = String.init 32 (fun i -> Char.chr (i * 7 mod 256)) in
  let nonce = String.make 12 '\x42' in
  let msg = "attack at dawn, via AS 7018" in
  let ct = C.Chacha20.encrypt ~key ~nonce msg in
  check_bool "ct differs" true (ct <> msg);
  check "roundtrip" msg (C.Chacha20.encrypt ~key ~nonce ct)

let chacha_counter_continuity () =
  (* Encrypting 130 bytes at counter 0 = block 0 ‖ block 1 ‖ block 2 prefix. *)
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let zeros = String.make 130 '\x00' in
  let stream = C.Chacha20.encrypt ~key ~nonce zeros in
  let b0 = C.Chacha20.block ~key ~counter:0 ~nonce in
  let b1 = C.Chacha20.block ~key ~counter:1 ~nonce in
  check_bool "block0" true (String.sub stream 0 64 = b0);
  check_bool "block1" true (String.sub stream 64 64 = b1)

(* ---- DRBG ----------------------------------------------------------------- *)

let drbg_deterministic () =
  let a = C.Drbg.create ~seed:"seed" and b = C.Drbg.create ~seed:"seed" in
  check_bool "same stream" true (C.Drbg.generate a 100 = C.Drbg.generate b 100);
  let c = C.Drbg.create ~seed:"other" in
  check_bool "different stream" true
    (C.Drbg.generate (C.Drbg.create ~seed:"seed") 100 <> C.Drbg.generate c 100)

let drbg_split_independence () =
  let parent = C.Drbg.of_int_seed 1 in
  let c1 = C.Drbg.split parent "a" and c2 = C.Drbg.split parent "b" in
  check_bool "children differ" true
    (C.Drbg.generate c1 64 <> C.Drbg.generate c2 64)

let drbg_uniform_int_bounds =
  qtest "uniform_int stays in range"
    QCheck2.Gen.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = C.Drbg.of_int_seed seed in
      let v = C.Drbg.uniform_int rng bound in
      v >= 0 && v < bound)

let drbg_uniform_int_coverage () =
  (* Every residue of a small bound is hit over many draws. *)
  let rng = C.Drbg.of_int_seed 99 in
  let seen = Array.make 7 false in
  for _ = 1 to 500 do
    seen.(C.Drbg.uniform_int rng 7) <- true
  done;
  check_bool "all residues" true (Array.for_all Fun.id seen)

let drbg_shuffle_permutes () =
  let rng = C.Drbg.of_int_seed 4 in
  let arr = Array.init 50 Fun.id in
  let orig = Array.copy arr in
  C.Drbg.shuffle rng arr;
  check_bool "same multiset" true
    (List.sort compare (Array.to_list arr) = Array.to_list orig)

(* ---- Bigint --------------------------------------------------------------- *)

let big_gen =
  (* Random values across widths, as decimal strings via int chunks. *)
  QCheck2.Gen.(
    map
      (fun (a, b, c) ->
        B.add
          (B.mul (B.add (B.mul (B.of_int a) (B.of_int max_int)) (B.of_int b)) (B.of_int max_int))
          (B.of_int c))
      (triple (int_bound max_int) (int_bound max_int) (int_bound max_int)))

let bigint_small_matches_native =
  qtest "matches native int ops"
    QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_range 1 1_000_000_000))
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      B.to_int (B.add ba bb) = a + b
      && B.to_int (B.mul ba bb) = a * b
      && B.to_int (B.div ba bb) = a / b
      && B.to_int (B.rem ba bb) = a mod b
      && B.compare ba bb = Int.compare a b)

let bigint_add_sub_roundtrip =
  qtest "(a+b)-b = a" (QCheck2.Gen.pair big_gen big_gen) (fun (a, b) ->
      B.equal (B.sub (B.add a b) b) a)

let bigint_divmod_identity =
  qtest "q*b + r = a and r < b" (QCheck2.Gen.pair big_gen big_gen)
    (fun (a, b) ->
      let b = B.add_int b 1 in
      let q, r = B.divmod a b in
      B.equal (B.add (B.mul q b) r) a && B.compare r b < 0)

let bigint_mul_commutative =
  qtest "a*b = b*a" (QCheck2.Gen.pair big_gen big_gen) (fun (a, b) ->
      B.equal (B.mul a b) (B.mul b a))

let bigint_mul_distributes =
  qtest "a*(b+c) = a*b + a*c" (QCheck2.Gen.triple big_gen big_gen big_gen)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let bigint_karatsuba_agrees () =
  (* Values wide enough to trigger the Karatsuba path. *)
  let rng = C.Drbg.of_int_seed 17 in
  for _ = 1 to 10 do
    let a = B.random_bits rng 2500 and b = B.random_bits rng 2300 in
    (* (a*b) / a = b when a > 0 *)
    let a = B.add_int a 1 in
    let q, r = B.divmod (B.mul a b) a in
    Alcotest.(check bool) "division recovers factor" true (B.equal q b && B.is_zero r)
  done

let bigint_string_roundtrip =
  qtest "of_string . to_string = id" big_gen (fun a ->
      B.equal (B.of_string (B.to_string a)) a)

let bigint_bytes_roundtrip =
  qtest "of_bytes_be . to_bytes_be = id" big_gen (fun a ->
      B.equal (B.of_bytes_be (B.to_bytes_be a)) a)

let bigint_hex_parse () =
  check_bool "0xff" true (B.equal (B.of_string "0xff") (B.of_int 255));
  check_bool "0xDEADBEEF" true
    (B.equal (B.of_string "0xDEADBEEF") (B.of_int 0xDEADBEEF));
  check_bool "underscores" true
    (B.equal (B.of_string "1_000_000") (B.of_int 1_000_000))

let bigint_shifts =
  qtest "shift_left then shift_right = id"
    (QCheck2.Gen.pair big_gen (QCheck2.Gen.int_range 0 200))
    (fun (a, n) -> B.equal (B.shift_right (B.shift_left a n) n) a)

let bigint_bit_length =
  qtest "2^(len-1) <= a < 2^len" big_gen (fun a ->
      let a = B.add_int a 1 in
      let len = B.bit_length a in
      B.compare a (B.shift_left B.one len) < 0
      && B.compare a (B.shift_left B.one (len - 1)) >= 0)

let bigint_mod_pow_small =
  qtest "mod_pow agrees with naive power"
    QCheck2.Gen.(triple (int_range 0 50) (int_range 0 12) (int_range 2 1000))
    (fun (base, e, m) ->
      let naive = ref 1 in
      for _ = 1 to e do
        naive := !naive * base mod m
      done;
      B.to_int
        (B.mod_pow ~base:(B.of_int base) ~exp:(B.of_int e)
           ~modulus:(B.of_int m))
      = !naive)

let bigint_fermat () =
  (* a^(p-1) = 1 mod p for prime p = 2^127 - 1 (Mersenne). *)
  let p = B.sub_int (B.shift_left B.one 127) 1 in
  let rng = C.Drbg.of_int_seed 3 in
  for _ = 1 to 5 do
    let a = B.add_int (B.random_below rng (B.sub_int p 3)) 2 in
    check_bool "fermat" true
      (B.equal (B.mod_pow ~base:a ~exp:(B.sub_int p 1) ~modulus:p) B.one)
  done

let bigint_mod_inv =
  qtest "a * inv(a) = 1 mod p" big_gen (fun a ->
      let p = B.sub_int (B.shift_left B.one 127) 1 in
      let a = B.add_int (B.rem a (B.sub_int p 2)) 1 in
      let inv = B.mod_inv a p in
      B.equal (B.rem (B.mul a inv) p) B.one)

let bigint_gcd_properties =
  qtest "gcd divides both" (QCheck2.Gen.pair big_gen big_gen) (fun (a, b) ->
      let a = B.add_int a 1 and b = B.add_int b 1 in
      let g = B.gcd a b in
      B.is_zero (B.rem a g) && B.is_zero (B.rem b g))

let bigint_sub_underflow () =
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Bigint.sub: negative result") (fun () ->
      ignore (B.sub (B.of_int 3) (B.of_int 5)))

let bigint_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let bigint_random_below =
  qtest "random_below is below" QCheck2.Gen.small_int (fun seed ->
      let rng = C.Drbg.of_int_seed seed in
      let bound = B.add_int (B.random_bits rng 100) 1 in
      B.compare (B.random_below rng bound) bound < 0)

(* ---- Primes --------------------------------------------------------------- *)

let prime_small_classification () =
  let rng = C.Drbg.of_int_seed 1 in
  List.iter
    (fun (n, expected) ->
      check_bool (string_of_int n) expected
        (C.Prime.is_probably_prime rng (B.of_int n)))
    [
      (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
      (561, false) (* Carmichael *); (7919, true); (7917, false);
      (104729, true); (104731, false);
    ]

let prime_mersenne () =
  let rng = C.Drbg.of_int_seed 2 in
  let m127 = B.sub_int (B.shift_left B.one 127) 1 in
  check_bool "2^127-1 prime" true (C.Prime.is_probably_prime rng m127);
  let m67 = B.sub_int (B.shift_left B.one 67) 1 in
  check_bool "2^67-1 composite" false (C.Prime.is_probably_prime rng m67)

let prime_generate_width () =
  let rng = C.Drbg.of_int_seed 3 in
  List.iter
    (fun bits ->
      let p = C.Prime.generate rng ~bits in
      check_int "exact width" bits (B.bit_length p);
      check_bool "odd" false (B.is_even p);
      check_bool "probably prime" true (C.Prime.is_probably_prime rng p))
    [ 16; 32; 64; 128 ]

let prime_product_detected () =
  let rng = C.Drbg.of_int_seed 4 in
  let p = C.Prime.generate rng ~bits:64 and q = C.Prime.generate rng ~bits:64 in
  check_bool "semiprime rejected" false
    (C.Prime.is_probably_prime rng (B.mul p q))

(* ---- RSA ------------------------------------------------------------------ *)

let rsa_key = lazy (C.Rsa.generate (C.Drbg.of_int_seed 42) ~bits:1024)

let rsa_sign_verify () =
  let key = Lazy.force rsa_key in
  let s = C.Rsa.sign key "hello" in
  check_bool "verifies" true (C.Rsa.verify key.pub ~msg:"hello" ~signature:s);
  check_bool "wrong msg" false (C.Rsa.verify key.pub ~msg:"hellp" ~signature:s);
  check_bool "wrong sig" false
    (C.Rsa.verify key.pub ~msg:"hello" ~signature:(String.make (C.Rsa.key_size key.pub) '\x01'))

let rsa_signature_length () =
  let key = Lazy.force rsa_key in
  check_int "one modulus width" (C.Rsa.key_size key.pub)
    (String.length (C.Rsa.sign key "x"))

let rsa_cross_key_rejection () =
  let key = Lazy.force rsa_key in
  let other = C.Rsa.generate (C.Drbg.of_int_seed 43) ~bits:1024 in
  let s = C.Rsa.sign key "msg" in
  check_bool "other key rejects" false
    (C.Rsa.verify other.pub ~msg:"msg" ~signature:s)

let rsa_raw_permutation_roundtrip () =
  let key = Lazy.force rsa_key in
  let rng = C.Drbg.of_int_seed 44 in
  for _ = 1 to 5 do
    let x = B.random_below rng key.pub.n in
    check_bool "private . public = id" true
      (B.equal (C.Rsa.raw_apply_private key (C.Rsa.raw_apply_public key.pub x)) x);
    check_bool "public . private = id" true
      (B.equal (C.Rsa.raw_apply_public key.pub (C.Rsa.raw_apply_private key x)) x)
  done

let rsa_deterministic_signatures () =
  let key = Lazy.force rsa_key in
  check_bool "PKCS#1 v1.5 is deterministic" true
    (C.Rsa.sign key "m" = C.Rsa.sign key "m")

let rsa_fingerprint_distinct () =
  let key = Lazy.force rsa_key in
  let other = C.Rsa.generate (C.Drbg.of_int_seed 45) ~bits:512 in
  check_bool "distinct" true
    (C.Rsa.fingerprint key.pub <> C.Rsa.fingerprint other.pub)

(* ---- Ring signatures ------------------------------------------------------ *)

let ring_keys =
  lazy
    (let rng = C.Drbg.of_int_seed 50 in
     Array.init 5 (fun _ -> C.Rsa.generate rng ~bits:512))

let ring_pub () = Array.map (fun (k : C.Rsa.private_key) -> k.pub) (Lazy.force ring_keys)

let ring_sign_verify_all_signers () =
  let keys = Lazy.force ring_keys in
  let ring = ring_pub () in
  let rng = C.Drbg.of_int_seed 51 in
  Array.iteri
    (fun i key ->
      let s = C.Ring_signature.sign rng ~ring ~signer:i ~key "stmt" in
      check_bool "verifies" true (C.Ring_signature.verify ~ring ~msg:"stmt" s);
      check_bool "wrong msg" false (C.Ring_signature.verify ~ring ~msg:"stmt2" s))
    keys

let ring_wrong_ring_rejected () =
  let keys = Lazy.force ring_keys in
  let ring = ring_pub () in
  let rng = C.Drbg.of_int_seed 52 in
  let s = C.Ring_signature.sign rng ~ring ~signer:0 ~key:keys.(0) "stmt" in
  let other = C.Rsa.generate rng ~bits:512 in
  let ring' = Array.copy ring in
  ring'.(4) <- other.pub;
  check_bool "modified ring rejects" false
    (C.Ring_signature.verify ~ring:ring' ~msg:"stmt" s)

let ring_signer_mismatch_raises () =
  let keys = Lazy.force ring_keys in
  let ring = ring_pub () in
  let rng = C.Drbg.of_int_seed 53 in
  Alcotest.check_raises "wrong slot"
    (Invalid_argument "Ring_signature.sign: key does not match ring slot")
    (fun () ->
      ignore (C.Ring_signature.sign rng ~ring ~signer:1 ~key:keys.(0) "x"))

let ring_encode_roundtrip () =
  let keys = Lazy.force ring_keys in
  let ring = ring_pub () in
  let rng = C.Drbg.of_int_seed 54 in
  let s = C.Ring_signature.sign rng ~ring ~signer:2 ~key:keys.(2) "stmt" in
  match C.Ring_signature.decode (C.Ring_signature.encode s) with
  | None -> Alcotest.fail "decode failed"
  | Some s' ->
      check_bool "still verifies" true
        (C.Ring_signature.verify ~ring ~msg:"stmt" s');
      check_int "ring size" 5 (C.Ring_signature.ring_size s')

let ring_decode_garbage () =
  check_bool "empty" true (C.Ring_signature.decode "" = None);
  check_bool "junk" true (C.Ring_signature.decode "not a signature" = None)

(* ---- Commitments ----------------------------------------------------------- *)

let commitment_roundtrip () =
  let rng = C.Drbg.of_int_seed 60 in
  let c, o = C.Commitment.commit rng "value" in
  check_bool "verifies" true (C.Commitment.verify c o);
  check_bool "wrong value" false
    (C.Commitment.verify c { o with C.Commitment.value = "other" });
  check_bool "wrong nonce" false
    (C.Commitment.verify c { o with C.Commitment.nonce = String.make 32 'x' })

let commitment_hiding () =
  (* Two commitments to the same value differ (fresh nonces). *)
  let rng = C.Drbg.of_int_seed 61 in
  let c1, _ = C.Commitment.commit rng "v" in
  let c2, _ = C.Commitment.commit rng "v" in
  check_bool "nonce blinds" true ((c1 :> string) <> (c2 :> string))

let commitment_bits () =
  let rng = C.Drbg.of_int_seed 62 in
  let c, o = C.Commitment.commit_bit rng true in
  check_bool "opens to true" true (C.Commitment.opening_bit o = Some true);
  check_bool "verifies" true (C.Commitment.verify c o);
  let _, o0 = C.Commitment.commit_bit rng false in
  check_bool "opens to false" true (C.Commitment.opening_bit o0 = Some false);
  check_bool "non-bit" true
    (C.Commitment.opening_bit { o with C.Commitment.value = "2" } = None)

let commitment_binding =
  qtest "binding: different values never collide"
    QCheck2.Gen.(pair string string)
    (fun (a, b) ->
      a = b
      ||
      let nonce = String.make 32 'n' in
      (C.Commitment.commit_with_nonce ~nonce a :> string)
      <> (C.Commitment.commit_with_nonce ~nonce b :> string))

(* ---- Hex / Bytes_util ------------------------------------------------------ *)

let hex_roundtrip =
  qtest "hex roundtrip" QCheck2.Gen.string (fun s ->
      C.Hex.decode (C.Hex.encode s) = s)

let hex_rejects () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (C.Hex.decode "abc"));
  Alcotest.check_raises "bad digit"
    (Invalid_argument "Hex.decode: not a hex digit") (fun () ->
      ignore (C.Hex.decode "zz"))

let bytes_util_encodings () =
  check_int "be32" 4 (String.length (C.Bytes_util.be32 0));
  check_int "read_be32" 0x01020304
    (C.Bytes_util.read_be32 (C.Bytes_util.be32 0x01020304) 0);
  check_int "read_le32" 0x01020304
    (C.Bytes_util.read_le32 (C.Bytes_util.le32 0x01020304) 0)

let encode_list_injective =
  qtest "encode_list is injective"
    QCheck2.Gen.(pair (list string) (list string))
    (fun (a, b) ->
      a = b || C.Codec.encode_list a <> C.Codec.encode_list b)

let xor_involution =
  qtest "xor twice = id" QCheck2.Gen.(pair string string) (fun (a, b) ->
      let n = min (String.length a) (String.length b) in
      let a = String.sub a 0 n and b = String.sub b 0 n in
      C.Bytes_util.xor (C.Bytes_util.xor a b) b = a)

let equal_ct_matches =
  qtest "equal_ct agrees with =" QCheck2.Gen.(pair string string)
    (fun (a, b) -> C.Bytes_util.equal_ct a b = (a = b))

(* ---- Additional edge cases -------------------------------------------------- *)

let chacha_rejects_bad_sizes () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Chacha20: key must be 32 bytes") (fun () ->
      ignore (C.Chacha20.block ~key:"short" ~counter:0 ~nonce:(String.make 12 'n')));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20: nonce must be 12 bytes") (fun () ->
      ignore (C.Chacha20.block ~key:(String.make 32 'k') ~counter:0 ~nonce:"n"))

let drbg_reseed_changes_stream () =
  let a = C.Drbg.create ~seed:"s" and b = C.Drbg.create ~seed:"s" in
  ignore (C.Drbg.generate a 16);
  ignore (C.Drbg.generate b 16);
  C.Drbg.reseed a "entropy";
  check_bool "diverged" true (C.Drbg.generate a 32 <> C.Drbg.generate b 32)

let bigint_to_int_overflow () =
  Alcotest.check_raises "overflow" (Failure "Bigint.to_int: overflow")
    (fun () -> ignore (B.to_int (B.shift_left B.one 100)))

let bigint_mod_inv_not_coprime () =
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (B.mod_inv (B.of_int 6) (B.of_int 9)))

let bigint_mod_pow_edge_cases () =
  (* modulus 1: everything is 0. *)
  check_bool "mod 1" true
    (B.is_zero (B.mod_pow ~base:(B.of_int 5) ~exp:(B.of_int 3) ~modulus:B.one));
  (* exponent 0: result 1. *)
  check_bool "exp 0" true
    (B.equal
       (B.mod_pow ~base:(B.of_int 5) ~exp:B.zero ~modulus:(B.of_int 7))
       B.one)

let rsa_too_small_modulus () =
  Alcotest.check_raises "tiny key"
    (Invalid_argument "Rsa.generate: modulus too small") (fun () ->
      ignore (C.Rsa.generate (C.Drbg.of_int_seed 1) ~bits:16))

let commitment_of_raw_rejects () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Commitment.of_raw: expected a 32-byte digest")
    (fun () -> ignore (C.Commitment.of_raw "short"))

let prime_rejects_tiny_request () =
  Alcotest.check_raises "too few bits"
    (Invalid_argument "Prime.generate: need at least 4 bits") (fun () ->
      ignore (C.Prime.generate (C.Drbg.of_int_seed 1) ~bits:2))

let small_primes_table_correct () =
  (* Spot-check the sieve against a naive primality test. *)
  let naive n =
    n >= 2
    &&
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 1)) in
    go 2
  in
  Array.iter
    (fun p -> check_bool (string_of_int p) true (naive p))
    C.Prime.small_primes;
  check_int "pi(1000)" 168 (Array.length C.Prime.small_primes)

let suite =
  [
    ("sha256 known answers", `Quick, sha256_known);
    ("chacha rejects bad sizes", `Quick, chacha_rejects_bad_sizes);
    ("drbg reseed changes stream", `Quick, drbg_reseed_changes_stream);
    ("bigint to_int overflow", `Quick, bigint_to_int_overflow);
    ("bigint mod_inv not coprime", `Quick, bigint_mod_inv_not_coprime);
    ("bigint mod_pow edge cases", `Quick, bigint_mod_pow_edge_cases);
    ("rsa too-small modulus", `Quick, rsa_too_small_modulus);
    ("commitment of_raw rejects", `Quick, commitment_of_raw_rejects);
    ("prime rejects tiny request", `Quick, prime_rejects_tiny_request);
    ("small primes table correct", `Quick, small_primes_table_correct);
    ("sha256 incremental", `Quick, sha256_incremental);
    sha256_sensitivity;
    ("hmac rfc4231", `Quick, hmac_rfc4231);
    ("hmac long key", `Quick, hmac_long_key);
    ("hmac verify", `Quick, hmac_verify);
    ("chacha20 rfc8439 block", `Quick, chacha_block_vector);
    ("chacha20 roundtrip", `Quick, chacha_roundtrip);
    ("chacha20 counter continuity", `Quick, chacha_counter_continuity);
    ("drbg deterministic", `Quick, drbg_deterministic);
    ("drbg split independence", `Quick, drbg_split_independence);
    drbg_uniform_int_bounds;
    ("drbg uniform coverage", `Quick, drbg_uniform_int_coverage);
    ("drbg shuffle permutes", `Quick, drbg_shuffle_permutes);
    bigint_small_matches_native;
    bigint_add_sub_roundtrip;
    bigint_divmod_identity;
    bigint_mul_commutative;
    bigint_mul_distributes;
    ("bigint karatsuba agrees", `Quick, bigint_karatsuba_agrees);
    bigint_string_roundtrip;
    bigint_bytes_roundtrip;
    ("bigint hex parse", `Quick, bigint_hex_parse);
    bigint_shifts;
    bigint_bit_length;
    bigint_mod_pow_small;
    ("bigint fermat little theorem", `Quick, bigint_fermat);
    bigint_mod_inv;
    bigint_gcd_properties;
    ("bigint sub underflow", `Quick, bigint_sub_underflow);
    ("bigint division by zero", `Quick, bigint_division_by_zero);
    bigint_random_below;
    ("prime small classification", `Quick, prime_small_classification);
    ("prime mersenne", `Quick, prime_mersenne);
    ("prime generate width", `Slow, prime_generate_width);
    ("prime product detected", `Quick, prime_product_detected);
    ("rsa sign/verify", `Quick, rsa_sign_verify);
    ("rsa signature length", `Quick, rsa_signature_length);
    ("rsa cross-key rejection", `Quick, rsa_cross_key_rejection);
    ("rsa raw permutation roundtrip", `Quick, rsa_raw_permutation_roundtrip);
    ("rsa deterministic signatures", `Quick, rsa_deterministic_signatures);
    ("rsa fingerprint distinct", `Quick, rsa_fingerprint_distinct);
    ("ring sign/verify all signers", `Quick, ring_sign_verify_all_signers);
    ("ring wrong ring rejected", `Quick, ring_wrong_ring_rejected);
    ("ring signer mismatch raises", `Quick, ring_signer_mismatch_raises);
    ("ring encode roundtrip", `Quick, ring_encode_roundtrip);
    ("ring decode garbage", `Quick, ring_decode_garbage);
    ("commitment roundtrip", `Quick, commitment_roundtrip);
    ("commitment hiding", `Quick, commitment_hiding);
    ("commitment bits", `Quick, commitment_bits);
    commitment_binding;
    hex_roundtrip;
    ("hex rejects", `Quick, hex_rejects);
    ("bytes_util encodings", `Quick, bytes_util_encodings);
    encode_list_injective;
    xor_involution;
    equal_ct_matches;
  ]
