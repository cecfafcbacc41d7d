module B = Bigint

type public_key = { n : B.t; e : B.t }

type private_key = {
  pub : public_key;
  d : B.t;
  p : B.t;
  q : B.t;
  dp : B.t;
  dq : B.t;
  qinv : B.t;
}

let e_default = B.of_int 65537

let obs_keygen = Pvr_obs.counter "crypto.rsa.keygen.ops"
let obs_sign = Pvr_obs.counter "crypto.rsa.sign.ops"
let obs_verify = Pvr_obs.counter "crypto.rsa.verify.ops"

let generate rng ~bits =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  Pvr_obs.incr obs_keygen;
  let half = bits / 2 in
  let rec attempt () =
    let p = Prime.generate rng ~bits:half in
    let q = Prime.generate rng ~bits:(bits - half) in
    if B.equal p q then attempt ()
    else begin
      let n = B.mul p q in
      let p1 = B.sub_int p 1 and q1 = B.sub_int q 1 in
      let phi = B.mul p1 q1 in
      if not (B.equal (B.gcd e_default phi) B.one) then attempt ()
      else begin
        let d = B.mod_inv e_default phi in
        {
          pub = { n; e = e_default };
          d;
          p;
          q;
          dp = B.rem d p1;
          dq = B.rem d q1;
          qinv = B.mod_inv q p;
        }
      end
    end
  in
  attempt ()

let key_size pub = (B.bit_length pub.n + 7) / 8

let raw_apply_public pub x = B.mod_pow ~base:x ~exp:pub.e ~modulus:pub.n

(* CRT: m_p = x^dp mod p, m_q = x^dq mod q, recombine. *)
let raw_apply_private key x =
  let mp = B.mod_pow ~base:(B.rem x key.p) ~exp:key.dp ~modulus:key.p in
  let mq = B.mod_pow ~base:(B.rem x key.q) ~exp:key.dq ~modulus:key.q in
  let diff =
    let mp' = B.rem mp key.p and mq' = B.rem mq key.p in
    if B.compare mp' mq' >= 0 then B.sub mp' mq'
    else B.sub (B.add mp' key.p) mq'
  in
  let h = B.rem (B.mul key.qinv diff) key.p in
  B.add mq (B.mul h key.q)

(* PKCS#1 v1.5 signature encoding: 00 01 FF..FF 00 || DigestInfo(SHA-256). *)
let sha256_digest_info =
  Hex.decode "3031300d060960864801650304020105000420"

let encode_digest ~key_bytes msg =
  let h = Sha256.digest msg in
  let t = sha256_digest_info ^ h in
  let pad_len = key_bytes - String.length t - 3 in
  if pad_len < 8 then invalid_arg "Rsa: modulus too small for SHA-256 padding";
  "\x00\x01" ^ String.make pad_len '\xff' ^ "\x00" ^ t

let sign key msg =
  Pvr_obs.incr obs_sign;
  let kb = key_size key.pub in
  let em = encode_digest ~key_bytes:kb msg in
  let s = raw_apply_private key (B.of_bytes_be em) in
  B.to_bytes_be ~pad_to:kb s

let verify pub ~msg ~signature =
  Pvr_obs.incr obs_verify;
  let kb = key_size pub in
  String.length signature = kb
  &&
  let s = B.of_bytes_be signature in
  B.compare s pub.n < 0
  &&
  let em = B.to_bytes_be ~pad_to:kb (raw_apply_public pub s) in
  Bytes_util.equal_ct em (encode_digest ~key_bytes:kb msg)

(* Plain x^d mod n over the retained naive exponentiation: the
   differential-test oracle for CRT signing.  Slow by design; kept so the
   test battery can prove [sign] interchangeable with the obvious
   definition. *)
let sign_plain key msg =
  let kb = key_size key.pub in
  let em = encode_digest ~key_bytes:kb msg in
  let s =
    B.mod_pow_naive ~base:(B.of_bytes_be em) ~exp:key.d ~modulus:key.pub.n
  in
  B.to_bytes_be ~pad_to:kb s

let fingerprint pub =
  Sha256.digest
    (Codec.encode_list [ B.to_bytes_be pub.n; B.to_bytes_be pub.e ])
