module B = Bigint

type t = { glue : string; xs : B.t array; domain_bytes : int }

(* ---- Keyed permutation E_k over fixed-width byte strings -------------- *)
(* 4-round Feistel (Luby–Rackoff) with HMAC-SHA-256 round functions,
   expanded to the half-width with ChaCha20.  A 4-round Feistel with strong
   round functions is a strong pseudorandom permutation. *)

let round_function ~key ~round ~width half =
  let seed = Hmac.mac ~key (Bytes_util.be32 round ^ half) in
  let nonce = String.sub (Sha256.digest ("rf-nonce" ^ Bytes_util.be32 round)) 0 12 in
  Chacha20.keystream ~key:seed ~nonce width

let feistel ~key ~decrypt ~width_l ~width_r s =
  let l = ref (String.sub s 0 width_l)
  and r = ref (String.sub s width_l width_r) in
  let rounds = [ 0; 1; 2; 3 ] in
  let rounds = if decrypt then List.rev rounds else rounds in
  List.iter
    (fun i ->
      (* Even rounds modify R from L; odd rounds modify L from R.  Widths may
         differ by a byte, so alternate on fixed roles instead of swapping. *)
      if i mod 2 = 0 then
        r := Bytes_util.xor !r (round_function ~key ~round:i ~width:width_r !l)
      else
        l := Bytes_util.xor !l (round_function ~key ~round:i ~width:width_l !r))
    rounds;
  !l ^ !r

let permute ~key ~width s =
  assert (String.length s = width);
  let width_l = width / 2 in
  feistel ~key ~decrypt:false ~width_l ~width_r:(width - width_l) s

let permute_inv ~key ~width s =
  assert (String.length s = width);
  let width_l = width / 2 in
  feistel ~key ~decrypt:true ~width_l ~width_r:(width - width_l) s

(* ---- Extended RSA permutation over the common domain ------------------ *)

let domain_bound bytes = B.shift_left B.one (8 * bytes)

(* g_i(m): split m = q*n + r; apply RSA to r if the whole block stays below
   2^b, else identity (RST §3.1). *)
let g_apply pub ~bound m =
  let q, r = B.divmod m pub.Rsa.n in
  let block_top = B.mul (B.add_int q 1) pub.Rsa.n in
  if B.compare block_top bound <= 0 then
    B.add (B.mul q pub.Rsa.n) (Rsa.raw_apply_public pub r)
  else m

let g_invert key ~bound m =
  let pub = key.Rsa.pub in
  let q, r = B.divmod m pub.Rsa.n in
  let block_top = B.mul (B.add_int q 1) pub.Rsa.n in
  if B.compare block_top bound <= 0 then
    B.add (B.mul q pub.Rsa.n) (Rsa.raw_apply_private key r)
  else m

(* ---- The ring equation ------------------------------------------------ *)

let message_key msg = Sha256.digest ("rst-ring-key:" ^ msg)

let common_domain_bytes ring =
  let max_bytes =
    Array.fold_left (fun acc pk -> max acc (Rsa.key_size pk)) 0 ring
  in
  max_bytes + 20 (* 160 extra bits per RST so the identity branch is rare *)

let to_block ~width v = B.to_bytes_be ~pad_to:width v
let of_block s = B.of_bytes_be s

let sign rng ~ring ~signer ~key msg =
  let r = Array.length ring in
  if r = 0 then invalid_arg "Ring_signature.sign: empty ring";
  if signer < 0 || signer >= r then
    invalid_arg "Ring_signature.sign: signer index out of range";
  if not (B.equal ring.(signer).Rsa.n key.Rsa.pub.Rsa.n) then
    invalid_arg "Ring_signature.sign: key does not match ring slot";
  let width = common_domain_bytes ring in
  let bound = domain_bound width in
  let k = message_key msg in
  let glue = Drbg.generate rng width in
  let xs = Array.make r B.zero in
  let ys = Array.make r "" in
  for i = 0 to r - 1 do
    if i <> signer then begin
      let x = B.random_below rng bound in
      xs.(i) <- x;
      ys.(i) <- to_block ~width (g_apply ring.(i) ~bound x)
    end
  done;
  (* Forward pass: z_0 = glue, z_{i+1} = E(z_i xor y_i), up to z_signer. *)
  let z_lo = ref glue in
  for i = 0 to signer - 1 do
    z_lo := permute ~key:k ~width (Bytes_util.xor !z_lo ys.(i))
  done;
  (* Backward pass: z_r = glue, z_i = D(z_{i+1}) xor y_i, down to
     z_{signer+1}. *)
  let z_hi = ref glue in
  for i = r - 1 downto signer + 1 do
    z_hi := Bytes_util.xor (permute_inv ~key:k ~width !z_hi) ys.(i)
  done;
  (* Solve z_{s+1} = E(z_s xor y_s) for y_s. *)
  let y_s = Bytes_util.xor (permute_inv ~key:k ~width !z_hi) !z_lo in
  xs.(signer) <- g_invert key ~bound (of_block y_s);
  { glue; xs; domain_bytes = width }

let verify ~ring ~msg t =
  let r = Array.length ring in
  Array.length t.xs = r
  && t.domain_bytes = common_domain_bytes ring
  && String.length t.glue = t.domain_bytes
  &&
  let width = t.domain_bytes in
  let bound = domain_bound width in
  let k = message_key msg in
  let ok = Array.for_all (fun x -> B.compare x bound < 0) t.xs in
  ok
  &&
  let z = ref t.glue in
  for i = 0 to r - 1 do
    let y = to_block ~width (g_apply ring.(i) ~bound t.xs.(i)) in
    z := permute ~key:k ~width (Bytes_util.xor !z y)
  done;
  Bytes_util.equal_ct !z t.glue

let ring_size t = Array.length t.xs

let encode t =
  Codec.encode_list
    (Bytes_util.be32 t.domain_bytes :: t.glue
    :: Array.to_list (Array.map B.to_bytes_be t.xs))

let decode s =
  (* Inverse of [encode]; returns None on any malformed input. *)
  Codec.decode_list s (function
    | domain :: glue :: xs ->
        let domain_bytes = Codec.u32_item domain in
        if String.length glue <> domain_bytes then Codec.malformed "glue";
        { glue; xs = Array.of_list (List.map B.of_bytes_be xs); domain_bytes }
    | _ -> Codec.malformed "ring signature")
