let mask32 = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

(* [len] keystream bytes from block [counter] on, written into one buffer:
   the initial state and the working state are allocated once and reused
   for every block. *)
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
  let st = Array.make 16 0 in
  let nblocks = (len + 63) / 64 in
  let out = Bytes.create (64 * nblocks) in
  for b = 0 to nblocks - 1 do
    init.(12) <- (counter + b) land mask32;
    Array.blit init 0 st 0 16;
    for _ = 1 to 10 do
      quarter_round st 0 4 8 12;
      quarter_round st 1 5 9 13;
      quarter_round st 2 6 10 14;
      quarter_round st 3 7 11 15;
      quarter_round st 0 5 10 15;
      quarter_round st 1 6 11 12;
      quarter_round st 2 7 8 13;
      quarter_round st 3 4 9 14
    done;
    for i = 0 to 15 do
      Bytes.set_int32_le out
        ((64 * b) + (4 * i))
        (Int32.of_int ((st.(i) + init.(i)) land mask32))
    done
  done;
  if Bytes.length out = len then Bytes.unsafe_to_string out
  else Bytes.sub_string out 0 len

let block ~key ~counter ~nonce = stream ~key ~nonce ~counter 64
let keystream ~key ~nonce len = stream ~key ~nonce ~counter:0 len

let encrypt ~key ~nonce ?(counter = 0) msg =
  let ks = stream ~key ~nonce ~counter (String.length msg) in
  String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code ks.[i])) msg
