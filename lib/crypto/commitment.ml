type commitment = string

type opening = { value : string; nonce : string }

let tag = "pvr-commit-v1:"

let commit_with_nonce ~nonce value =
  Sha256.digest (tag ^ Codec.encode_list [ value; nonce ])

let commit rng value =
  let nonce = Drbg.generate rng 32 in
  (commit_with_nonce ~nonce value, { value; nonce })

let verify c { value; nonce } =
  Bytes_util.equal_ct c (commit_with_nonce ~nonce value)

let bit_string b = if b then "1" else "0"

let commit_bit rng b = commit rng (bit_string b)

let nonce_tag = "pvr-commit-nonce-v1"

let derived_nonce ~key ~context value =
  Hmac.mac ~key (Codec.encode_list [ nonce_tag; context; value ])

let commit_derived ~key ~context value =
  let nonce = derived_nonce ~key ~context value in
  (commit_with_nonce ~nonce value, { value; nonce })

(* Fast path for single-bit commitments: the preimage
   [tag ^ encode_list [bit; nonce]] always has the same 59-byte layout
   (14-byte tag, list header, 1-byte value, 32-byte nonce), so the template
   — constants, length frames, SHA-256 padding — is precomputed once and
   each commit blits two fields and compresses.  Byte-identical to
   {!commit_with_nonce} by construction; the KAT suite asserts it. *)
module Bit_fast = struct
  let tag_len = String.length tag (* 14 *)
  let value_off = tag_len + 4 + 4 (* list count frame + value length frame *)
  let nonce_off = value_off + 1 + 4
  let preimage_len = nonce_off + 32 (* 59 *)

  type t = { buf : Bytes.t; fixed : Sha256.Fixed.t }

  let create () =
    let buf = Bytes.make preimage_len '\x00' in
    Bytes.blit_string tag 0 buf 0 tag_len;
    Bytes.blit_string (Bytes_util.be32 2) 0 buf tag_len 4;
    Bytes.blit_string (Bytes_util.be32 1) 0 buf (tag_len + 4) 4;
    Bytes.blit_string (Bytes_util.be32 32) 0 buf (value_off + 1) 4;
    { buf; fixed = Sha256.Fixed.create preimage_len }

  let commit t ~nonce value_char =
    Bytes.set t.buf value_off value_char;
    Bytes.blit_string nonce 0 t.buf nonce_off 32;
    Sha256.Fixed.digest t.fixed (Bytes.unsafe_to_string t.buf)
end

module Cache = struct
  (* Two memo levels.  [tbl] is the original per-(context, value) table.
     [vtbl] memoizes whole bit vectors per vertex: the engine's hot loop
     commits the same monotone vector for every quiet vertex each epoch, and
     a vector hit answers all k bits with one lookup — without even building
     the k per-bit context strings.  The per-bit nonce derivation is
     unchanged (the bit index stays in the HMAC context: dropping it would
     make equal-bit commitments collide across positions and leak the
     threshold), so commitment bytes are identical to the uncached path. *)
  type t = {
    mutable key : string;
    mutable hkey : Hmac.Key.t; (* precomputed HMAC midstates for [key] *)
    mutable period : int;
    tbl : (string * string, commitment * opening) Hashtbl.t;
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
      tbl = Hashtbl.create 256;
      vtbl = Hashtbl.create 64;
      bit_fast = Bit_fast.create ();
    }

  let period t = t.period

  let clear t =
    Hashtbl.reset t.tbl;
    Hashtbl.reset t.vtbl

  let rotate t ~period ~key =
    if period <> t.period || not (String.equal key t.key) then begin
      clear t;
      t.period <- period;
      t.key <- key;
      t.hkey <- Hmac.Key.create key
    end

  let derived_nonce_fast t ~context value =
    Hmac.mac_with t.hkey
      (Codec.encode_list [ nonce_tag; context; value ])

  let commit t ~context value =
    match Hashtbl.find_opt t.tbl (context, value) with
    | Some r ->
        Pvr_obs.incr hits;
        r
    | None ->
        Pvr_obs.incr misses;
        let nonce = derived_nonce_fast t ~context value in
        let c =
          if String.length value = 1 then
            Bit_fast.commit t.bit_fast ~nonce value.[0]
          else commit_with_nonce ~nonce value
        in
        let r = (c, { value; nonce }) in
        Hashtbl.add t.tbl (context, value) r;
        r

  let commit_bit t ~context b = commit t ~context (bit_string b)

  (* Whole-vector memo: [vertex] must identify the committing position
     (prover | prefix) and [context] must be the same pure function of the
     bit index the per-bit path would use.  A hit counts as one hit per
     bit, so the hit/miss counters stay comparable with the per-bit
     accounting. *)
  let commit_bit_vector t ~vertex ~context bits =
    let shape = String.concat "" (List.map bit_string bits) in
    match Hashtbl.find_opt t.vtbl (vertex, shape) with
    | Some rs ->
        Pvr_obs.add hits (List.length rs);
        Pvr_obs.incr vhits;
        rs
    | None ->
        let rs =
          List.mapi (fun i b -> commit_bit t ~context:(context i) b) bits
        in
        Hashtbl.replace t.vtbl (vertex, shape) rs;
        rs

  let size t = Hashtbl.length t.tbl
end

let opening_bit o =
  match o.value with "0" -> Some false | "1" -> Some true | _ -> None

let to_hex c = Hex.encode c

let of_raw s =
  if String.length s <> Sha256.digest_size then
    invalid_arg "Commitment.of_raw: expected a 32-byte digest";
  s
