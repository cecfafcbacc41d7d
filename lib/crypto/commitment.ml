type commitment = string

type opening = { value : string; nonce : string }

let tag = "pvr-commit-v2:"
let nonce_len = 32

(* The nonce has a fixed width, so [tag ‖ nonce ‖ value] splits one way
   only: the value is everything after byte [tag + 32]. *)
let commit_with_nonce ~nonce value =
  if String.length nonce <> nonce_len then
    invalid_arg "Commitment.commit_with_nonce: nonce must be 32 bytes";
  Sha256.digest (String.concat "" [ tag; nonce; value ])

let commit rng value =
  let nonce = Drbg.generate rng nonce_len in
  (commit_with_nonce ~nonce value, { value; nonce })

let verify c { value; nonce } =
  String.length nonce = nonce_len
  && Bytes_util.equal_ct c (commit_with_nonce ~nonce value)

let bit_string b = if b then "1" else "0"

let commit_bit rng b = commit rng (bit_string b)

(* Fast path for single-bit commitments: the 47-byte preimage (14-byte
   tag, 32-byte nonce, 1-byte value) fits one SHA-256 block, so the padded
   template is precomputed once and each commit blits two fields and
   compresses once.  Byte-identical to {!commit_with_nonce} by
   construction; the KAT suite asserts it. *)
module Bit_fast = struct
  let nonce_off = String.length tag (* 14 *)
  let value_off = nonce_off + nonce_len
  let preimage_len = value_off + 1 (* 47 *)

  type t = { buf : Bytes.t; fixed : Sha256.Fixed.t }

  let create () =
    let buf = Bytes.make preimage_len '\x00' in
    Bytes.blit_string tag 0 buf 0 nonce_off;
    { buf; fixed = Sha256.Fixed.create preimage_len }

  let commit t ~nonce value_char =
    Bytes.blit_string nonce 0 t.buf nonce_off nonce_len;
    Bytes.set t.buf value_off value_char;
    Sha256.Fixed.digest t.fixed (Bytes.unsafe_to_string t.buf)
end

module Cache = struct
  (* One memo level: whole bit vectors per (context, pattern).  The engine's
     hot loop commits the same monotone vector for every quiet vertex each
     epoch, and a hit answers all k bits with one lookup.  A miss keys one
     ChaCha20 stream with an HMAC over the whole pattern and reads bit i's
     nonce at stream offset 32i. *)
  type t = {
    mutable key : string;
    mutable hkey : Hmac.Key.t; (* precomputed HMAC midstates for [key] *)
    mutable period : int;
    vtbl : (string * string, (commitment * opening) list) Hashtbl.t;
    bit_fast : Bit_fast.t;
  }

  let hits = Pvr_obs.counter "crypto.commitment.cache.hits"
  let misses = Pvr_obs.counter "crypto.commitment.cache.misses"
  let vhits = Pvr_obs.counter "crypto.commitment.cache.vector.hits"

  let create ?(period = 0) ~key () =
    {
      key;
      hkey = Hmac.Key.create key;
      period;
      vtbl = Hashtbl.create 64;
      bit_fast = Bit_fast.create ();
    }

  let period t = t.period

  let rotate t ~period ~key =
    if period <> t.period || not (String.equal key t.key) then begin
      Hashtbl.reset t.vtbl;
      t.period <- period;
      t.key <- key;
      t.hkey <- Hmac.Key.create key
    end

  let stream_tag = "pvr-commit-stream-v2"
  let stream_nonce = String.make 12 '\x00'

  (* Hits and misses count one per bit, so the hit ratio is a share of
     committed bits whatever the vector length. *)
  let commit_bit_vector t ~context bits =
    let pattern = String.concat "" (List.map bit_string bits) in
    let k = String.length pattern in
    match Hashtbl.find_opt t.vtbl (context, pattern) with
    | Some rs ->
        Pvr_obs.add hits k;
        Pvr_obs.incr vhits;
        rs
    | None ->
        Pvr_obs.add misses k;
        let key =
          Hmac.mac_with t.hkey
            (Codec.encode_list [ stream_tag; context; pattern ])
        in
        let stream = Chacha20.keystream ~key ~nonce:stream_nonce (32 * k) in
        let rs =
          List.mapi
            (fun i b ->
              let value = bit_string b in
              let nonce = String.sub stream (32 * i) 32 in
              (Bit_fast.commit t.bit_fast ~nonce value.[0], { value; nonce }))
            bits
        in
        Hashtbl.replace t.vtbl (context, pattern) rs;
        rs
end

let opening_bit o =
  match o.value with "0" -> Some false | "1" -> Some true | _ -> None

let to_hex c = Hex.encode c

let of_raw s =
  if String.length s <> Sha256.digest_size then
    invalid_arg "Commitment.of_raw: expected a 32-byte digest";
  s
