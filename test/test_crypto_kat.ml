(* Known-answer and differential tests for the fast-math crypto core.

   The fast paths introduced for the engine's per-epoch RSA/SHA-256 bill —
   Montgomery/fixed-window modular exponentiation, CRT signing,
   precomputed-schedule and multi-buffer SHA-256, HMAC key midstates —
   must be byte-identical to the naive reference paths they replaced.
   This suite pins them three ways:

   - FIPS 180-4 / RFC 4231 known answers, run against {e every} API
     variant (one-shot, reusable-ctx, multi-buffer, fixed-width template);
   - qcheck differential oracles against the retained naive paths
     ([Bigint.mod_pow_naive], [Rsa.sign_plain], per-item [Wire.verify],
     [Hmac.mac] and [Chacha20.encrypt] under the commitment cache's
     keyed stream);
   - forged-batch tests: [Wire.verify_batch] must reject {e exactly} the
     forged items, whatever mix of flipped bits, wrong signers, wrong
     messages, cancelling signature pairs and misshapen bytes. *)

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

(* ---- SHA-256: accelerated kernel ≡ OCaml compression -------------------

   [Sha256.Reference] contexts compress on the OCaml kernel on every host;
   plain contexts use the SHA extensions where the CPU has them.  Each
   check below runs the reference side everywhere and adds the
   accelerated side only where it exists; the test names say which. *)

let kernels =
  if C.Sha256.accelerated then "SHA-NI ≡ OCaml"
  else "OCaml only, no SHA-NI: stub side skipped"

(* Feed [m] through [ctx] in pieces cut at [cuts], then finalize. *)
let split_digest ctx m cuts =
  C.Sha256.reset ctx;
  let n = String.length m in
  let last =
    List.fold_left
      (fun pos cut ->
        let cut = max pos (min n cut) in
        C.Sha256.update ctx (String.sub m pos (cut - pos));
        cut)
      0 (List.sort compare cuts)
  in
  C.Sha256.update ctx (String.sub m last (n - last));
  C.Sha256.finalize ctx

let sha256_kernels_split_updates =
  qtest ~count:500
    ("sha256 split updates: " ^ kernels)
    QCheck2.Gen.(
      pair (string_size (int_range 0 300))
        (list_size (int_range 0 6) (int_range 0 300)))
    (fun (m, cuts) ->
      let reference = C.Sha256.digest_with (C.Sha256.Reference.init ()) m in
      split_digest (C.Sha256.Reference.init ()) m cuts = reference
      && ((not C.Sha256.accelerated)
         || split_digest (C.Sha256.init ()) m cuts = reference))

let sha256_kernels_fixed =
  qtest ~count:300
    ("sha256 Fixed widths: " ^ kernels)
    QCheck2.Gen.(string_size (int_range 1 130))
    (fun m ->
      let w = String.length m in
      let reference = C.Sha256.digest_with (C.Sha256.Reference.init ()) m in
      C.Sha256.Fixed.digest (C.Sha256.Reference.fixed w) m = reference
      && ((not C.Sha256.accelerated)
         || C.Sha256.Fixed.digest (C.Sha256.Fixed.create w) m = reference))

(* The FIPS vectors through each kernel's streaming and fixed-width paths;
   both kernels count one ["crypto.sha256.blocks"] per padded block. *)
let sha256_kernels_kat () =
  let paths =
    ("reference", C.Sha256.Reference.init, C.Sha256.Reference.fixed)
    :: (if C.Sha256.accelerated then
          [ ("accelerated", C.Sha256.init, C.Sha256.Fixed.create) ]
        else [])
  in
  List.iter
    (fun (name, init, fixed) ->
      List.iter
        (fun (m, d) ->
          let blocks = (String.length m + 9 + 63) / 64 in
          let got, dd = counted (fun () -> C.Sha256.digest_with (init ()) m) in
          check (name ^ " digest_with") d (hex got);
          check_int (name ^ " blocks") blocks (delta dd "crypto.sha256.blocks");
          let t = fixed (String.length m) in
          let got, dd = counted (fun () -> C.Sha256.Fixed.digest t m) in
          check (name ^ " Fixed.digest") d (hex got);
          check_int (name ^ " fixed blocks") blocks
            (delta dd "crypto.sha256.blocks"))
        sha_kats)
    paths

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

let mont_short_exp =
  qtest ~count:150 "mod_pow short exponents ≡ naive"
    QCheck2.Gen.(
      triple (big_gen 256) (int_range 0 32) odd_modulus_gen
      >>= fun (base, bits, modulus) ->
      map (fun exp -> (base, exp, modulus)) (big_gen bits))
    (fun (base, exp, modulus) ->
      B.equal
        (B.mod_pow ~base ~exp ~modulus)
        (B.mod_pow_naive ~base ~exp ~modulus))

(* ---- Bigint byte codecs vs a byte-at-a-time reference ------------------- *)

(* The codecs as they were first written: one multiply-add per input byte,
   one division by 256 per output byte. *)
let ref_of_bytes s =
  String.fold_left (fun acc c -> B.add_int (B.mul_int acc 256) (Char.code c)) B.zero s

let ref_to_bytes ?pad_to a =
  let rec go a acc =
    if B.is_zero a then acc
    else
      let q, r = B.divmod a (B.of_int 256) in
      go q (String.make 1 (Char.chr (B.to_int r)) ^ acc)
  in
  let raw = go a "" in
  match pad_to with
  | None -> if raw = "" then "\x00" else raw
  | Some n ->
      if String.length raw > n then invalid_arg "too large"
      else String.make (n - String.length raw) '\x00' ^ raw

let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None

let bigint_codecs_match_reference =
  qtest ~count:300 "Bigint byte codecs ≡ byte-at-a-time reference"
    QCheck2.Gen.(
      triple (int_range 0 4) (string_size (int_range 0 80)) (int_range 0 90))
    (fun (zeros, body, pad) ->
      (* Leading zero bytes, the empty string and widths below, at and
         above the value's length all occur. *)
      let s = String.make zeros '\x00' ^ body in
      let a = B.of_bytes_be s in
      B.equal a (ref_of_bytes s)
      && B.to_bytes_be a = ref_to_bytes a
      && outcome (fun () -> B.to_bytes_be ~pad_to:pad a)
         = outcome (fun () -> ref_to_bytes ~pad_to:pad a))

let bigint_codec_edges () =
  check_bool "empty is zero" true (B.is_zero (B.of_bytes_be ""));
  check_bool "zeros are zero" true (B.is_zero (B.of_bytes_be "\x00\x00\x00"));
  check "zero is one byte" "00" (hex (B.to_bytes_be B.zero));
  check "zero padded" "000000" (hex (B.to_bytes_be ~pad_to:3 B.zero));
  check "leading zeros dropped" "0102"
    (hex (B.to_bytes_be (B.of_bytes_be "\x00\x00\x01\x02")));
  check "padded" "00000102" (hex (B.to_bytes_be ~pad_to:4 (B.of_int 0x102)));
  check "limb boundary" "7fffffff80000000"
    (hex (B.to_bytes_be (B.of_bytes_be "\x7f\xff\xff\xff\x80\x00\x00\x00")));
  Alcotest.check_raises "too large for pad_to"
    (Invalid_argument "Bigint.to_bytes_be: value too large for pad_to")
    (fun () -> ignore (B.to_bytes_be ~pad_to:1 (B.of_int 0x100)))

(* ---- RSA: CRT signing vs the plain x^d mod n oracle ---------------------- *)

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

(* ---- Wire.verify_batch: exact per-statement verdicts -------------------- *)

module P = Pvr
module Asn = Pvr_bgp.Asn

let wire_signers = [ Asn.of_int 1; Asn.of_int 2 ]

let wire_keyring =
  lazy (P.Keyring.create ~bits:512 (C.Drbg.of_int_seed 1004) wire_signers)

let commit_payload ?(epoch = 1) i =
  {
    P.Wire.cmt_epoch = epoch;
    cmt_prefix = Pvr_bgp.Prefix.of_string "10.0.0.0/8";
    cmt_scheme = "min";
    cmt_commitments = [ Printf.sprintf "statement %d" i ];
  }

(* [signed] is private: a forged statement is built the way an attacker
   delivers one, as transport bytes. *)
let forge ~signer payload signature =
  Option.get
    (P.Wire.decode_signed ~decode:P.Wire.decode_commit
       (C.Codec.encode_list
          [
            P.Wire.encode_commit payload;
            C.Bytes_util.be32 (Asn.to_int signer);
            signature;
          ]))

let check_commit = P.Wire.check ~encode:P.Wire.encode_commit

(* A batch over two signers, with duplicate statements, plain and
   Merkle-batched signatures, and per-item forgeries chosen by the plan:
   0 = valid, 1 = flipped signature bit, 2 = wrong signer, 3 = wrong
   message.  Batched items of one signer share one RSA signature. *)
let build_wire_batch plan =
  let kr = Lazy.force wire_keyring in
  let signer i = List.nth wire_signers (i mod 2) in
  let drafts =
    List.mapi
      (fun i (_, batched) ->
        let d =
          P.Wire.draft ~as_:(signer i) ~encode:P.Wire.encode_commit
            (commit_payload (i / 3))
        in
        if not batched then P.Wire.sign_batch kr [ P.Wire.Pending d ];
        (d, batched))
      plan
  in
  P.Wire.sign_batch kr
    (List.filter_map
       (fun (d, batched) -> if batched then Some (P.Wire.Pending d) else None)
       drafts);
  List.mapi
    (fun i ((forgery, _), (d, _)) ->
      let s = P.Wire.signed d in
      match forgery with
      | 0 -> s
      | 1 ->
          let b = Bytes.of_string s.P.Wire.signature in
          let at = (7 * i) mod Bytes.length b in
          Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
          forge ~signer:s.P.Wire.signer s.P.Wire.payload (Bytes.to_string b)
      | 2 -> forge ~signer:(signer (i + 1)) s.P.Wire.payload s.P.Wire.signature
      | _ ->
          forge ~signer:s.P.Wire.signer
            (commit_payload ~epoch:2 (i / 3))
            s.P.Wire.signature)
    (List.combine plan drafts)

let wire_batch_differential =
  qtest ~count:30 "Wire.verify_batch ≡ Wire.verify"
    QCheck2.Gen.(list_size (int_range 0 10) (pair (int_bound 3) bool))
    (fun plan ->
      let kr = Lazy.force wire_keyring in
      let batch = build_wire_batch plan in
      let verdicts = P.Wire.verify_batch kr (List.map check_commit batch) in
      verdicts
      = List.map (P.Wire.verify kr ~encode:P.Wire.encode_commit) batch
      && verdicts = List.map (fun (f, _) -> f = 0) plan)

let wire_batch_forged_mask () =
  (* Deterministic spot check: the verdict list flags exactly the forged
     positions, in both signature shapes. *)
  let kr = Lazy.force wire_keyring in
  List.iter
    (fun batched ->
      let plan = List.map (fun f -> (f, batched)) [ 0; 1; 0; 2; 0; 3; 0; 0 ] in
      Alcotest.(check (list bool))
        (Printf.sprintf "forged mask (batched %b)" batched)
        (List.map (fun (f, _) -> f = 0) plan)
        (P.Wire.verify_batch kr
           (List.map check_commit (build_wire_batch plan))))
    [ false; true ];
  check_bool "empty batch" true (P.Wire.verify_batch kr [] = [])

(* Two plain signatures of one signer, multiplied by x and x^-1 mod n: each
   is a forgery, but their product is the product of two valid signatures.
   A product screen over same-key signatures accepts the pair; exact
   verification must reject both. *)
let wire_batch_cancelling_forgery () =
  let kr = Lazy.force wire_keyring in
  let signer = List.hd wire_signers in
  let pub = P.Keyring.public_key kr signer in
  let n = pub.C.Rsa.n in
  let scale x (s : P.Wire.commit P.Wire.signed) =
    forge ~signer s.P.Wire.payload
      (B.to_bytes_be ~pad_to:(C.Rsa.key_size pub)
         (B.rem (B.mul (B.of_bytes_be s.P.Wire.signature) x) n))
  in
  let sign i =
    P.Wire.sign kr ~as_:signer ~encode:P.Wire.encode_commit (commit_payload i)
  in
  let a = sign 1 and b = sign 2 in
  let a' = scale B.two a and b' = scale (B.mod_inv B.two n) b in
  let verify = P.Wire.verify kr ~encode:P.Wire.encode_commit in
  check_bool "first forged alone" false (verify a');
  check_bool "second forged alone" false (verify b');
  Alcotest.(check (list bool))
    "cancelling pair rejected" [ false; false ]
    (P.Wire.verify_batch kr [ check_commit a'; check_commit b' ]);
  Alcotest.(check (list bool))
    "next to the genuine pair" [ true; false; true; false ]
    (P.Wire.verify_batch kr (List.map check_commit [ a; a'; b; b' ]))

let wire_batch_structural_rejects () =
  let kr = Lazy.force wire_keyring in
  let signer = List.hd wire_signers in
  let kb = C.Rsa.key_size (P.Keyring.public_key kr signer) in
  let good =
    P.Wire.sign kr ~as_:signer ~encode:P.Wire.encode_commit (commit_payload 1)
  in
  let with_sig s = forge ~signer good.P.Wire.payload s in
  let pad k = good.P.Wire.signature ^ String.make k '\x00' in
  Alcotest.(check (list bool))
    "structural misfits rejected without smearing"
    [ true; false; false; false; false; false ]
    (P.Wire.verify_batch kr
       (List.map check_commit
          [
            good;
            with_sig "short";
            with_sig (pad 1);
            (* nonce and index present, sibling cut short *)
            with_sig (pad (16 + 4 + 31));
            (* s >= n *)
            with_sig (String.make kb '\xff');
            (* index 2 needs depth 2, the path has one sibling *)
            with_sig
              (String.concat ""
                 [
                   good.P.Wire.signature;
                   String.make 16 'n';
                   C.Bytes_util.be32 2;
                   String.make 32 's';
                 ]);
          ]))

(* ---- ChaCha20 keystream ---------------------------------------------- *)

let keystream_is_encrypted_zeros () =
  let key = String.init 32 (fun i -> Char.chr (7 * i)) in
  let nonce = String.init 12 (fun i -> Char.chr (200 - i)) in
  List.iter
    (fun len ->
      check
        (Printf.sprintf "keystream %d" len)
        (hex (C.Chacha20.encrypt ~key ~nonce (String.make len '\x00')))
        (hex (C.Chacha20.keystream ~key ~nonce len)))
    [ 32; 64; 100; 1024 ]

(* ---- Commitment cache vs a reference stream ------------------------- *)

(* The stream rebuilt from the one-shot primitives: [Hmac.mac] for the
   cache's prepared key, [Chacha20.encrypt] of zeros for [keystream], and
   [commit_with_nonce] for the fixed-width bit template. *)
let reference_stream ~key ~context bits =
  let pattern =
    String.concat "" (List.map (fun b -> if b then "1" else "0") bits)
  in
  let k = String.length pattern in
  let stream =
    C.Chacha20.encrypt
      ~key:
        (C.Hmac.mac ~key
           (C.Codec.encode_list [ "pvr-commit-stream-v2"; context; pattern ]))
      ~nonce:(String.make 12 '\x00')
      (String.make (32 * k) '\x00')
  in
  List.init k (fun i ->
      let value = String.make 1 pattern.[i] in
      let nonce = String.sub stream (32 * i) 32 in
      (C.Commitment.commit_with_nonce ~nonce value, value, nonce))

let cache_matches_reference_stream =
  qtest ~count:150 "Cache.commit_bit_vector ≡ reference stream"
    QCheck2.Gen.(
      triple (string_size (int_range 1 80)) (string_size (int_range 0 40))
        (list_size (int_range 0 40) bool))
    (fun (key, context, bits) ->
      let cache = C.Commitment.Cache.create ~key () in
      List.for_all2
        (fun (c1, o1) (c2, value, nonce) ->
          C.Commitment.to_hex c1 = C.Commitment.to_hex c2
          && o1.C.Commitment.nonce = nonce
          && o1.C.Commitment.value = value
          && C.Commitment.verify c1 o1)
        (C.Commitment.Cache.commit_bit_vector cache ~context bits)
        (reference_stream ~key ~context bits))

(* Pins the commitment bytes: a change to the stream's tag, key, layout
   or the bit template moves these digests (and every report line's
   [c=] field with them).  The values were also computed outside OCaml,
   from textbook HMAC-SHA-256 and RFC 8439 ChaCha20. *)
let vector_known_answer () =
  let cache = C.Commitment.Cache.create ~key:"vec-salt" () in
  let rs =
    C.Commitment.Cache.commit_bit_vector cache ~context:"p|q|0"
      (List.init 32 (fun i -> i >= 5))
  in
  check "first commitment"
    "38df09d31651e097f646b24b1bbe4469af94936cb91f1abbfacecad3ebbc9ccd"
    (C.Commitment.to_hex (fst (List.hd rs)));
  check "all commitments and nonces"
    "9dea6e1df9eb10b20f4f75ae645241bf7ac8afee92ea147d711ac1f0bb4dcaa4"
    (C.Sha256.digest_hex
       (String.concat ""
          (List.map
             (fun ((c : C.Commitment.commitment), o) ->
               (c :> string) ^ o.C.Commitment.nonce)
             rs)))

(* The v2 preimage of a bit is "pvr-commit-v2:" ‖ nonce ‖ bit, 47 bytes:
   one SHA-256 block.  The digests were computed with Python's hashlib
   over the same bytes, nonce = bytes 0x20..0x3f. *)
let bit_commitment_known_answer () =
  let nonce = String.init 32 (fun i -> Char.chr (0x20 + i)) in
  let c1, d =
    counted (fun () -> C.Commitment.commit_with_nonce ~nonce "1")
  in
  check "bit 1"
    "63a37d5f5f38b79b4a011d6a2e4f1cb718559063dc983432c45cf33aee040068"
    (C.Commitment.to_hex c1);
  check "bit 0"
    "9e61f7f49e40a979b9eca7d334f92c9c0e445bb01ab8d271c0ce990daec1c1e8"
    (C.Commitment.to_hex (C.Commitment.commit_with_nonce ~nonce "0"));
  check_int "one block" 1 (delta d "crypto.sha256.blocks");
  check_int "47 bytes" 47 (delta d "crypto.sha256.bytes")

(* Binding rests on the nonce's width: moving a byte across the
   nonce/value boundary keeps the hashed bytes, so [verify] must reject
   any nonce that is not 32 bytes. *)
let commitment_rejects_shifted_openings () =
  let nonce = String.init 32 (fun i -> Char.chr (0x41 + i)) in
  let value = "xy" in
  let c = C.Commitment.commit_with_nonce ~nonce value in
  let o = { C.Commitment.value; nonce } in
  check_bool "honest opening" true (C.Commitment.verify c o);
  let same_bytes (o' : C.Commitment.opening) =
    C.Sha256.digest ("pvr-commit-v2:" ^ o'.nonce ^ o'.value) = (c :> string)
  in
  let longer = { C.Commitment.nonce = nonce ^ "x"; value = "y" } in
  let shorter =
    { C.Commitment.nonce = String.sub nonce 0 31; value = "`xy" }
  in
  List.iter
    (fun (name, o') ->
      check_bool (name ^ ": same preimage bytes") true (same_bytes o');
      check_bool (name ^ ": rejected") false (C.Commitment.verify c o'))
    [ ("33-byte nonce", longer); ("31-byte nonce", shorter) ];
  check_bool "31-byte nonce, same value" false
    (C.Commitment.verify c { o with nonce = String.sub nonce 0 31 });
  check_bool "33-byte nonce, same value" false
    (C.Commitment.verify c { o with nonce = nonce ^ "\x00" })

let vector_hit_accounting () =
  let cache = C.Commitment.Cache.create ~key:"vh-salt" () in
  let bits = [ true; false; true; false ] in
  let commit () =
    C.Commitment.Cache.commit_bit_vector cache ~context:"v" bits
  in
  let first, d1 = counted commit in
  check_int "first pass misses per bit" 4
    (delta d1 "crypto.commitment.cache.misses");
  check_int "no vector hit yet" 0
    (delta d1 "crypto.commitment.cache.vector.hits");
  check_int "one HMAC keys the stream" 2 (delta d1 "crypto.sha256.ops" - 4);
  let second, d2 = counted commit in
  check_int "vector hit" 1 (delta d2 "crypto.commitment.cache.vector.hits");
  check_int "counts one hit per bit" 4
    (delta d2 "crypto.commitment.cache.hits");
  check_int "no sha256 on a vector hit" 0 (delta d2 "crypto.sha256.ops");
  List.iter2
    (fun (c1, _) (c2, _) ->
      check "stable" (C.Commitment.to_hex c1) (C.Commitment.to_hex c2))
    first second;
  (* Another context with the same bit pattern misses, under its own
     stream. *)
  let other, d3 =
    counted (fun () ->
        C.Commitment.Cache.commit_bit_vector cache ~context:"w" bits)
  in
  check_int "distinct context misses" 4
    (delta d3 "crypto.commitment.cache.misses");
  List.iter2
    (fun (c1, _) (c2, _) ->
      check_bool "contexts separate vertices" false
        (C.Commitment.to_hex c1 = C.Commitment.to_hex c2))
    first other

(* Hiding across epochs: within one salt period a provider sees the
   commitments of every vector A commits at a vertex.  Two vectors one bit
   apart must share no commitment, or comparing them shows which
   thresholds moved. *)
let one_bit_apart_share_nothing () =
  let cache = C.Commitment.Cache.create ~key:"hide-salt" () in
  let commit bits =
    List.map
      (fun (c, _) -> C.Commitment.to_hex c)
      (C.Commitment.Cache.commit_bit_vector cache ~context:"p|q|0" bits)
  in
  let before = List.init 32 (fun i -> i >= 5) in
  let after = List.init 32 (fun i -> i >= 4) in
  let a = commit before and b = commit after in
  let shared = List.length (List.filter (fun c -> List.mem c b) a) in
  check_int "commitments shared by vectors one bit apart" 0 shared

let rotation_invalidates () =
  let cache = C.Commitment.Cache.create ~period:3 ~key:"salt-3" () in
  check_int "period" 3 (C.Commitment.Cache.period cache);
  let commit () =
    fst
      (List.hd
         (C.Commitment.Cache.commit_bit_vector cache ~context:"x" [ true ]))
  in
  let c1 = commit () in
  (* Same period and key: a no-op, entries survive. *)
  C.Commitment.Cache.rotate cache ~period:3 ~key:"salt-3";
  let (_, d) = counted commit in
  check_int "no-op rotation keeps entries" 1
    (delta d "crypto.commitment.cache.hits");
  (* New period: every entry is dropped and the stream re-keyed. *)
  C.Commitment.Cache.rotate cache ~period:4 ~key:"salt-4";
  check_int "rotated period" 4 (C.Commitment.Cache.period cache);
  let c2, d = counted commit in
  check_int "recomputes after rotation" 1
    (delta d "crypto.commitment.cache.misses");
  check_bool "new salt, new commitment" false
    (C.Commitment.to_hex c1 = C.Commitment.to_hex c2);
  let c3, _, _ =
    List.hd (reference_stream ~key:"salt-4" ~context:"x" [ true ])
  in
  check "keyed by the new salt" (C.Commitment.to_hex c3)
    (C.Commitment.to_hex c2)

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
    wire_batch_differential;
    ("Wire.verify_batch exact forged mask", `Quick, wire_batch_forged_mask);
    ( "Wire.verify_batch cancelling forgery",
      `Quick,
      wire_batch_cancelling_forgery );
    ( "Wire.verify_batch structural rejects",
      `Quick,
      wire_batch_structural_rejects );
    ("keystream ≡ encrypt of zeros", `Quick, keystream_is_encrypted_zeros);
    cache_matches_reference_stream;
    ("vector commit known answer", `Quick, vector_known_answer);
    ("one-block bit commitment known answer", `Quick, bit_commitment_known_answer);
    ( "commitment rejects shifted openings",
      `Quick,
      commitment_rejects_shifted_openings );
    ("vector hit accounting", `Quick, vector_hit_accounting);
    ("salt rotation invalidates cache", `Quick, rotation_invalidates);
    ( "vectors one bit apart share no commitment",
      `Quick,
      one_bit_apart_share_nothing );
    mont_short_exp;
    bigint_codecs_match_reference;
    ("Bigint byte codec edges", `Quick, bigint_codec_edges);
    sha256_kernels_split_updates;
    sha256_kernels_fixed;
    ("sha256 FIPS KATs: " ^ kernels, `Quick, sha256_kernels_kat);
  ]
