(* SHA-256 over native ints: OCaml ints are 63-bit, so 32-bit words are kept
   masked with [mask32] after every operation that can overflow 32 bits. *)

let digest_size = 32
let block_size = 64
let mask32 = 0xFFFFFFFF

let obs_ops = Pvr_obs.counter "crypto.sha256.ops"
let obs_bytes = Pvr_obs.counter "crypto.sha256.bytes"
let obs_blocks = Pvr_obs.counter "crypto.sha256.blocks"

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* The compression kernel is chosen once, when the module loads: the CPU's
   SHA extensions (sha256_stubs.c) when CPUID reports them, otherwise
   [compress_raw] below.  Nothing else selects it.  [Reference] contexts
   always run [compress_raw], so tests can compare the two on any host. *)
external ni_available : unit -> bool = "pvr_sha256_ni_available" [@@noalloc]

external ni_compress :
  int array -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "pvr_sha256_ni_compress_byte" "pvr_sha256_ni_compress"
[@@noalloc]

let accelerated = ni_available ()

let () =
  Pvr_obs.fixed_gauge "crypto.sha256.accelerated" (Bool.to_int accelerated)

type ctx = {
  h : int array;              (* 8 state words *)
  buf : Bytes.t;              (* partial block, [block_size] bytes *)
  mutable buf_len : int;      (* bytes currently in [buf] *)
  mutable total : int;        (* total message length in bytes *)
  ni : bool;                  (* compress on the SHA extensions *)
}

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

let make ni =
  {
    h = Array.copy iv;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
    ni;
  }

let init () = make accelerated

let reset ctx =
  Array.blit iv 0 ctx.h 0 8;
  ctx.buf_len <- 0;
  ctx.total <- 0

let copy ctx =
  {
    h = Array.copy ctx.h;
    buf = Bytes.copy ctx.buf;
    buf_len = ctx.buf_len;
    total = ctx.total;
    ni = ctx.ni;
  }

(* Callers guarantee [off + 64 <= String.length s]. *)
let[@inline] read_be32_unsafe (s : string) off =
  (Char.code (String.unsafe_get s off) lsl 24)
  lor (Char.code (String.unsafe_get s (off + 1)) lsl 16)
  lor (Char.code (String.unsafe_get s (off + 2)) lsl 8)
  lor Char.code (String.unsafe_get s (off + 3))

(* Rotations of a 32-bit word [x] are read off its doubled word
   [x lor (x lsl 32)]: bits n..n+31 of it are [x] rotated right by n, for
   every n up to 31 (the doubled word's top bit falls off the 63-bit int,
   and no rotation reaches it).  Each Σ then costs three shifts and one
   mask. *)
let[@inline] big_sigma0 x =
  let x = x lor (x lsl 32) in
  ((x lsr 2) lxor (x lsr 13) lxor (x lsr 22)) land mask32

let[@inline] big_sigma1 x =
  let x = x lor (x lsl 32) in
  ((x lsr 6) lxor (x lsr 11) lxor (x lsr 25)) land mask32

let[@inline] small_sigma0 x =
  let d = x lor (x lsl 32) in
  ((d lsr 7) lxor (d lsr 18)) land mask32 lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let d = x lor (x lsl 32) in
  ((d lsr 17) lxor (d lsr 19)) land mask32 lxor (x lsr 10)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land b) lor (c land (a lor b))
let[@inline] kw w t = Array.unsafe_get k t + Array.unsafe_get w t

(* Compress one 64-byte block located at [off] in [src] into [h], using
   [w] as schedule scratch.  The 64 rounds run eight at a time with the
   working variables renamed instead of shifted: a round only writes the
   new e into d's variable and the new a into h's, and the next round
   reads the eight variables one place along.  After eight rounds every
   variable is back in its own name.  Nothing here allocates. *)
let compress_raw (h : int array) (w : int array) (src : string) off =
  for t = 0 to 15 do
    Array.unsafe_set w t (read_be32_unsafe src (off + (4 * t)))
  done;
  for t = 16 to 63 do
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16)
       + small_sigma0 (Array.unsafe_get w (t - 15))
       + Array.unsafe_get w (t - 7)
       + small_sigma1 (Array.unsafe_get w (t - 2)))
      land mask32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for j = 0 to 7 do
    let i = 8 * j in
    let t1 = !hh + big_sigma1 !e + ch !e !f !g + kw w i in
    d := (!d + t1) land mask32;
    hh := (t1 + big_sigma0 !a + maj !a !b !c) land mask32;
    let t1 = !g + big_sigma1 !d + ch !d !e !f + kw w (i + 1) in
    c := (!c + t1) land mask32;
    g := (t1 + big_sigma0 !hh + maj !hh !a !b) land mask32;
    let t1 = !f + big_sigma1 !c + ch !c !d !e + kw w (i + 2) in
    b := (!b + t1) land mask32;
    f := (t1 + big_sigma0 !g + maj !g !hh !a) land mask32;
    let t1 = !e + big_sigma1 !b + ch !b !c !d + kw w (i + 3) in
    a := (!a + t1) land mask32;
    e := (t1 + big_sigma0 !f + maj !f !g !hh) land mask32;
    let t1 = !d + big_sigma1 !a + ch !a !b !c + kw w (i + 4) in
    hh := (!hh + t1) land mask32;
    d := (t1 + big_sigma0 !e + maj !e !f !g) land mask32;
    let t1 = !c + big_sigma1 !hh + ch !hh !a !b + kw w (i + 5) in
    g := (!g + t1) land mask32;
    c := (t1 + big_sigma0 !d + maj !d !e !f) land mask32;
    let t1 = !b + big_sigma1 !g + ch !g !hh !a + kw w (i + 6) in
    f := (!f + t1) land mask32;
    b := (t1 + big_sigma0 !c + maj !c !d !e) land mask32;
    let t1 = !a + big_sigma1 !f + ch !f !g !hh + kw w (i + 7) in
    e := (!e + t1) land mask32;
    a := (t1 + big_sigma0 !b + maj !b !c !d) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

(* One schedule array per domain: only [compress_raw] reads it, and it
   never yields mid-block. *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* Compress the [n] whole blocks at [off] in [src] into [h], in one call
   to the kernel.  Counts one ["crypto.sha256.blocks"] per block. *)
let compress_blocks ni h src off n =
  Pvr_obs.add obs_blocks n;
  if ni then ni_compress h src off n
  else begin
    let w = Domain.DLS.get schedule in
    for b = 0 to n - 1 do
      compress_raw h w src (off + (b * block_size))
    done
  end

let compress_buf ctx =
  compress_blocks ctx.ni ctx.h (Bytes.unsafe_to_string ctx.buf) 0 1

(* The range is checked before anything else: [ni_compress] reads raw
   memory at the offsets it is given. *)
let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub";
  let stop = off + len in
  ctx.total <- ctx.total + len;
  let pos = ref off in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (block_size - ctx.buf_len) len in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = block_size then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  let n = (stop - !pos) / block_size in
  if n > 0 then begin
    compress_blocks ctx.ni ctx.h s !pos n;
    pos := !pos + (n * block_size)
  end;
  if !pos < stop then begin
    Bytes.blit_string s !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx s = update_sub ctx s 0 (String.length s)

(* Serialize [h] as the 32-byte big-endian digest. *)
let output_of (h : int array) =
  let out = Bytes.create digest_size in
  for i = 0 to 7 do
    let v = h.(i) in
    Bytes.unsafe_set out (4 * i) (Char.unsafe_chr (v lsr 24));
    Bytes.unsafe_set out ((4 * i) + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set out ((4 * i) + 3) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

(* [v] is a non-negative native int: message bit lengths stay below 2^62. *)
let write_be64 (b : Bytes.t) off v =
  for i = 0 to 7 do
    Bytes.unsafe_set b (off + i)
      (Char.unsafe_chr ((v lsr (56 - (8 * i))) land 0xff))
  done

(* Padding happens in place in [ctx.buf]: append 0x80, zero-fill, write the
   bit length into the last 8 bytes of the final block.  No intermediate
   strings are allocated — finalize used to build and re-feed a padding
   string, which at 10M+ finalizes per bench run was real garbage. *)
let finalize ctx =
  Pvr_obs.incr obs_ops;
  Pvr_obs.add obs_bytes ctx.total;
  let bit_len = ctx.total * 8 in
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  if ctx.buf_len >= block_size - 8 then begin
    Bytes.fill buf (ctx.buf_len + 1) (block_size - ctx.buf_len - 1) '\x00';
    compress_buf ctx;
    Bytes.fill buf 0 (block_size - 8) '\x00'
  end
  else Bytes.fill buf (ctx.buf_len + 1) (block_size - 9 - ctx.buf_len) '\x00';
  write_be64 buf (block_size - 8) bit_len;
  compress_buf ctx;
  ctx.buf_len <- 0;
  output_of ctx.h

let digest_with ctx s =
  reset ctx;
  update ctx s;
  finalize ctx

let digest s = digest_with (init ()) s

let digest_hex s = Hex.encode (digest s)

let digest_many ctx parts = List.map (digest_with ctx) parts

(* Absorb [v] as 8 big-endian bytes, written straight into the buffer. *)
let update_be64 ctx v =
  ctx.total <- ctx.total + 8;
  for i = 0 to 7 do
    Bytes.unsafe_set ctx.buf ctx.buf_len
      (Char.unsafe_chr ((v lsr (56 - (8 * i))) land 0xff));
    ctx.buf_len <- ctx.buf_len + 1;
    if ctx.buf_len = block_size then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  done

(* Digest-of-state helper: each part is fed length-framed, so the digest
   is unambiguous under concatenation — ["ab"; "c"] and ["a"; "bc"] hash
   differently.  The engine uses this to fingerprint simulator RIB state
   for resume validation. *)
let update_part ctx p =
  update_be64 ctx (String.length p);
  update ctx p

let digest_parts_with ctx parts =
  reset ctx;
  List.iter (update_part ctx) parts;
  finalize ctx

let digest_parts parts = digest_parts_with (init ()) parts

let digest_parts_hex parts = Hex.encode (digest_parts parts)

(* ---- Fixed-width one-shot hashing --------------------------------------

   The engine's hottest hashes have a fixed message width (per-bit
   commitment preimages, length-framed digest blocks), so the entire padded
   layout — 0x80 marker, zero fill, 64-bit length — is known up front.
   [Fixed.create] builds that padded block template once; each digest then
   just blits the message over the template and compresses, skipping the
   buffering/padding machinery entirely.  A [Fixed.t] carries its own
   scratch state and is single-owner, like {!ctx}. *)
module Fixed = struct
  type t = { len : int; blocks : Bytes.t; fh : int array; fni : bool }

  let make ni len =
    if len < 0 then invalid_arg "Sha256.Fixed.create: negative width";
    let nblocks = (len + 1 + 8 + block_size - 1) / block_size in
    let blocks = Bytes.make (nblocks * block_size) '\x00' in
    Bytes.set blocks len '\x80';
    write_be64 blocks ((nblocks * block_size) - 8) (len * 8);
    { len; blocks; fh = Array.make 8 0; fni = ni }

  let create len = make accelerated len

  let width t = t.len

  let digest t msg =
    if String.length msg <> t.len then
      invalid_arg "Sha256.Fixed.digest: width mismatch";
    Pvr_obs.incr obs_ops;
    Pvr_obs.add obs_bytes t.len;
    Bytes.blit_string msg 0 t.blocks 0 t.len;
    Array.blit iv 0 t.fh 0 8;
    compress_blocks t.fni t.fh
      (Bytes.unsafe_to_string t.blocks)
      0
      (Bytes.length t.blocks / block_size);
    output_of t.fh
end

module Reference = struct
  let init () = make false
  let fixed len = Fixed.make false len
end
