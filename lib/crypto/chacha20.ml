let mask32 = 0xFFFFFFFF

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* [len] keystream bytes from block [counter] on, written into one buffer.
   The 16 working words live in local variables for the 20 rounds (the
   quarter rounds are written out), so a block touches memory only to
   read the initial state and write its 64 output bytes. *)
let stream ~key ~nonce ~counter len =
  if String.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> 12 then
    invalid_arg "Chacha20: nonce must be 12 bytes";
  let init = Array.make 16 0 in
  init.(0) <- 0x61707865;
  init.(1) <- 0x3320646e;
  init.(2) <- 0x79622d32;
  init.(3) <- 0x6b206574;
  for i = 0 to 7 do
    init.(4 + i) <- Bytes_util.read_le32 key (4 * i)
  done;
  for i = 0 to 2 do
    init.(13 + i) <- Bytes_util.read_le32 nonce (4 * i)
  done;
  let nblocks = (len + 63) / 64 in
  let out = Bytes.create (64 * nblocks) in
  let put off v i =
    Bytes.set_int32_le out (off + (4 * i))
      (Int32.of_int ((v + Array.unsafe_get init i) land mask32))
  in
  for blk = 0 to nblocks - 1 do
    init.(12) <- (counter + blk) land mask32;
    let x0 = ref init.(0) and x1 = ref init.(1) and x2 = ref init.(2) in
    let x3 = ref init.(3) and x4 = ref init.(4) and x5 = ref init.(5) in
    let x6 = ref init.(6) and x7 = ref init.(7) and x8 = ref init.(8) in
    let x9 = ref init.(9) and x10 = ref init.(10) and x11 = ref init.(11) in
    let x12 = ref init.(12) and x13 = ref init.(13) and x14 = ref init.(14) in
    let x15 = ref init.(15) in
    for _ = 1 to 10 do
      (* column rounds: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15) *)
      x0 := (!x0 + !x4) land mask32;
      x12 := rotl (!x12 lxor !x0) 16;
      x8 := (!x8 + !x12) land mask32;
      x4 := rotl (!x4 lxor !x8) 12;
      x0 := (!x0 + !x4) land mask32;
      x12 := rotl (!x12 lxor !x0) 8;
      x8 := (!x8 + !x12) land mask32;
      x4 := rotl (!x4 lxor !x8) 7;
      x1 := (!x1 + !x5) land mask32;
      x13 := rotl (!x13 lxor !x1) 16;
      x9 := (!x9 + !x13) land mask32;
      x5 := rotl (!x5 lxor !x9) 12;
      x1 := (!x1 + !x5) land mask32;
      x13 := rotl (!x13 lxor !x1) 8;
      x9 := (!x9 + !x13) land mask32;
      x5 := rotl (!x5 lxor !x9) 7;
      x2 := (!x2 + !x6) land mask32;
      x14 := rotl (!x14 lxor !x2) 16;
      x10 := (!x10 + !x14) land mask32;
      x6 := rotl (!x6 lxor !x10) 12;
      x2 := (!x2 + !x6) land mask32;
      x14 := rotl (!x14 lxor !x2) 8;
      x10 := (!x10 + !x14) land mask32;
      x6 := rotl (!x6 lxor !x10) 7;
      x3 := (!x3 + !x7) land mask32;
      x15 := rotl (!x15 lxor !x3) 16;
      x11 := (!x11 + !x15) land mask32;
      x7 := rotl (!x7 lxor !x11) 12;
      x3 := (!x3 + !x7) land mask32;
      x15 := rotl (!x15 lxor !x3) 8;
      x11 := (!x11 + !x15) land mask32;
      x7 := rotl (!x7 lxor !x11) 7;
      (* diagonal rounds: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14) *)
      x0 := (!x0 + !x5) land mask32;
      x15 := rotl (!x15 lxor !x0) 16;
      x10 := (!x10 + !x15) land mask32;
      x5 := rotl (!x5 lxor !x10) 12;
      x0 := (!x0 + !x5) land mask32;
      x15 := rotl (!x15 lxor !x0) 8;
      x10 := (!x10 + !x15) land mask32;
      x5 := rotl (!x5 lxor !x10) 7;
      x1 := (!x1 + !x6) land mask32;
      x12 := rotl (!x12 lxor !x1) 16;
      x11 := (!x11 + !x12) land mask32;
      x6 := rotl (!x6 lxor !x11) 12;
      x1 := (!x1 + !x6) land mask32;
      x12 := rotl (!x12 lxor !x1) 8;
      x11 := (!x11 + !x12) land mask32;
      x6 := rotl (!x6 lxor !x11) 7;
      x2 := (!x2 + !x7) land mask32;
      x13 := rotl (!x13 lxor !x2) 16;
      x8 := (!x8 + !x13) land mask32;
      x7 := rotl (!x7 lxor !x8) 12;
      x2 := (!x2 + !x7) land mask32;
      x13 := rotl (!x13 lxor !x2) 8;
      x8 := (!x8 + !x13) land mask32;
      x7 := rotl (!x7 lxor !x8) 7;
      x3 := (!x3 + !x4) land mask32;
      x14 := rotl (!x14 lxor !x3) 16;
      x9 := (!x9 + !x14) land mask32;
      x4 := rotl (!x4 lxor !x9) 12;
      x3 := (!x3 + !x4) land mask32;
      x14 := rotl (!x14 lxor !x3) 8;
      x9 := (!x9 + !x14) land mask32;
      x4 := rotl (!x4 lxor !x9) 7;
    done;
    let off = 64 * blk in
    put off !x0 0; put off !x1 1; put off !x2 2; put off !x3 3;
    put off !x4 4; put off !x5 5; put off !x6 6; put off !x7 7;
    put off !x8 8; put off !x9 9; put off !x10 10; put off !x11 11;
    put off !x12 12; put off !x13 13; put off !x14 14; put off !x15 15
  done;
  if Bytes.length out = len then Bytes.unsafe_to_string out
  else Bytes.sub_string out 0 len

let block ~key ~counter ~nonce = stream ~key ~nonce ~counter 64
let keystream ~key ~nonce len = stream ~key ~nonce ~counter:0 len

let encrypt ~key ~nonce ?(counter = 0) msg =
  let ks = stream ~key ~nonce ~counter (String.length msg) in
  String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code ks.[i])) msg
