(* Little-endian arrays of limbs in base 2^31.  The canonical form has no
   most-significant zero limbs and represents zero as the empty array, so
   Stdlib structural equality is numeric equality.

   31-bit limbs keep every intermediate inside OCaml's 63-bit native int:
   a limb product is < 2^62, and product + two carries still fits. *)

type t = int array

let limb_bits = 31
let base = 1 lsl limb_bits
let limb_mask = base - 1

let zero : t = [||]
let is_zero a = Array.length a = 0

(* Strip most-significant zero limbs. *)
let normalize (a : t) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bigint.of_int: negative";
  (* An OCaml int is at most 62 bits, hence at most two 31-bit limbs. *)
  if n = 0 then zero
  else if n < base then [| n |]
  else [| n land limb_mask; n lsr limb_bits |]

let one = of_int 1
let two = of_int 2

let to_int a =
  match Array.length a with
  | 0 -> 0
  | 1 -> a.(0)
  | 2 -> a.(0) lor (a.(1) lsl limb_bits)
  | 3 when a.(2) < 1 lsl (62 - 2 * limb_bits) ->
      a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits))
  | _ -> failwith "Bigint.to_int: overflow"

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let is_even a = is_zero a || a.(0) land 1 = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  normalize out

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Bigint.sub: negative result";
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      (* Propagate the final carry: it can be up to 2^31-1. *)
      let p = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!p) + !carry in
        out.(!p) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr p
      done
    done;
    normalize out
  end

let karatsuba_threshold = 32

(* Split [a] at limb index [k] into (low, high). *)
let split_at (a : t) k =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (la - k))

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la < karatsuba_threshold || lb < karatsuba_threshold then
    mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    let shift_limbs x m =
      if is_zero x then zero
      else begin
        let lx = Array.length x in
        let out = Array.make (lx + m) 0 in
        Array.blit x 0 out m lx;
        out
      end
    in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let shift_left (a : t) bits =
  if bits < 0 then invalid_arg "Bigint.shift_left: negative";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      out.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize out
  end

let shift_right (a : t) bits =
  if bits < 0 then invalid_arg "Bigint.shift_right: negative";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      normalize out
    end
  end

let bit_length (a : t) =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((la - 1) * limb_bits) + width top 0
  end

let test_bit (a : t) i =
  let limb = i / limb_bits in
  limb < Array.length a && a.(limb) lsr (i mod limb_bits) land 1 = 1

(* Single-limb helpers used by conversion routines and Algorithm D. *)

let mul_int (a : t) m =
  if m < 0 then invalid_arg "Bigint.mul_int: negative"
  else if m = 0 || is_zero a then zero
  else if m < base then begin
    let la = Array.length a in
    let out = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (a.(i) * m) + !carry in
      out.(i) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    out.(la) <- !carry;
    normalize out
  end
  else mul a (of_int m)

let add_int a n = if n = 0 then a else add a (of_int n)

let sub_int a n = if n = 0 then a else sub a (of_int n)

(* Divide by a single positive limb; returns (quotient, remainder). *)
let divmod_limb (a : t) d =
  assert (d > 0 && d < base);
  let la = Array.length a in
  let out = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    out.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize out, !r)

let rem_int (a : t) d =
  if d <= 0 then invalid_arg "Bigint.rem_int: non-positive divisor";
  if d < base then begin
    (* Horner over the limbs, without building the quotient. *)
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      r := ((!r lsl limb_bits) lor a.(i)) mod d
    done;
    !r
  end
  else begin
    (* Fold limbs through native-int modular arithmetic. *)
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      (* r*2^31 + limb mod d, avoiding overflow: r < d <= max_int/2^31 is not
         guaranteed, so do it with a loop of shifts. *)
      let acc = ref !r in
      for _ = 1 to limb_bits do
        acc := !acc * 2 mod d
      done;
      r := (!acc + (a.(i) mod d)) mod d
    done;
    !r
  end

(* Knuth TAOCP vol. 2, Algorithm D.  [b] must have at least 2 limbs (the
   single-limb case is handled by [divmod_limb]). *)
let divmod_knuth (a : t) (b : t) =
  let n = Array.length b in
  (* D1: normalize so the divisor's top limb has its high bit set. *)
  let shift =
    let rec go v acc = if v >= base / 2 then acc else go (v * 2) (acc + 1) in
    go b.(n - 1) 0
  in
  let u = shift_left a shift and v = shift_left b shift in
  let m = Array.length u - n in
  if m < 0 then (zero, a)
  else begin
    (* Working copy of the dividend with one extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let v1 = v.(n - 1) and v2 = v.(n - 2) in
    for j = m downto 0 do
      (* D3: estimate q_hat from the top two dividend limbs.  Cap the first
         estimate at base-1 so that q_hat * v2 stays below 2^62. *)
      let top = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
      let q_hat = ref (top / v1) and r_hat = ref (top mod v1) in
      if !q_hat >= base then begin
        q_hat := base - 1;
        r_hat := top - (!q_hat * v1)
      end;
      while
        !r_hat < base
        && !q_hat * v2 > (!r_hat lsl limb_bits) lor w.(j + n - 2)
      do
        decr q_hat;
        r_hat := !r_hat + v1
      done;
      (* D4: multiply-subtract w[j..j+n] -= q_hat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!q_hat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = w.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          w.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          w.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      (* D5/D6: if we subtracted too much, add the divisor back once. *)
      if d < 0 then begin
        w.(j + n) <- d + base;
        decr q_hat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = w.(i + j) + v.(i) + !carry in
          w.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !carry) land limb_mask
      end
      else w.(j + n) <- d;
      q.(j) <- !q_hat
    done;
    let r = normalize (Array.sub w 0 n) in
    (normalize q, shift_right r shift)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Both byte codecs run in one pass over the limbs: byte i from the
   least-significant end holds bits [8i, 8i+8), which straddle at most two
   31-bit limbs. *)
let of_bytes_be s =
  let len = String.length s in
  let out = Array.make (((8 * len) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = len - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      out.(!limb) <- !acc land limb_mask;
      incr limb;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits
    end
  done;
  if !nbits > 0 then out.(!limb) <- !acc;
  normalize out

let to_bytes_be ?pad_to (a : t) =
  let la = Array.length a in
  let nbytes = (bit_length a + 7) / 8 in
  let width =
    match pad_to with
    | None -> max nbytes 1
    | Some n ->
        if nbytes > n then
          invalid_arg "Bigint.to_bytes_be: value too large for pad_to"
        else n
  in
  let out = Bytes.make width '\x00' in
  for i = 0 to nbytes - 1 do
    let bit = 8 * i in
    let l = bit / limb_bits and off = bit mod limb_bits in
    let v = a.(l) lsr off in
    let v =
      if off > limb_bits - 8 && l + 1 < la then
        v lor (a.(l + 1) lsl (limb_bits - off))
      else v
    in
    Bytes.unsafe_set out (width - 1 - i) (Char.unsafe_chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let of_string s =
  if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
    let acc = ref zero in
    String.iter
      (fun c ->
        let d =
          match c with
          | '0' .. '9' -> Char.code c - Char.code '0'
          | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
          | '_' -> -1
          | _ -> invalid_arg "Bigint.of_string: bad hex digit"
        in
        if d >= 0 then acc := add_int (mul_int !acc 16) d)
      (String.sub s 2 (String.length s - 2));
    !acc
  end
  else begin
    let acc = ref zero in
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' ->
            acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
        | '_' -> ()
        | _ -> invalid_arg "Bigint.of_string: bad decimal digit")
      s;
    !acc
  end

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod_limb a 10 in
        Buffer.add_char buf (Char.chr (Char.code '0' + r));
        go q
      end
    in
    go a;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

(* Square-and-multiply with a full Knuth division per step.  Retained
   verbatim as the differential-test oracle for the Montgomery fast path
   below; never removed, because "slow and obviously right" is exactly
   what a fast-math rewrite must be checked against. *)
let mod_pow_naive ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else begin
    let result = ref one in
    let acc = ref (rem b modulus) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if test_bit exp i then result := rem (mul !result !acc) modulus;
      if i < nbits - 1 then acc := rem (mul !acc !acc) modulus
    done;
    !result
  end

(* ---- Montgomery exponentiation (odd moduli) -----------------------------

   The kernel lives in bigint_stubs.c: word-by-word CIOS multiplication
   over 64-bit limbs, run inside the whole exponentiation.  A context
   holds what the kernel needs of an odd modulus m of k 64-bit words as
   one string of little-endian words — m0' = -m^-1 mod 2^64, m, R^2 mod m
   and R mod m with R = 2^(64k) — so it is built once, never mutated, and
   domains share it. *)

let obs_mont_pow = Pvr_obs.counter "crypto.bigint.mont_pow.ops"

module Mont = struct
  type nat = t
  type t = { modulus : nat; rr : nat; words : string }

  external pow_stub : string -> nat -> nat -> Bytes.t -> unit
    = "pvr_bigint_mont_pow"

  external mul_stub : string -> nat -> nat -> Bytes.t -> unit
    = "pvr_bigint_mont_product"

  let max_bits = 16384

  (* -m0^-1 mod 2^64 by Newton iteration: each step doubles the number of
     correct low bits, so six steps from one cover 64. *)
  let neg_inv64 m0 =
    let x = ref 1L in
    for _ = 1 to 6 do
      x := Int64.mul !x (Int64.sub 2L (Int64.mul m0 !x))
    done;
    Int64.neg !x

  let create modulus =
    if is_even modulus then invalid_arg "Bigint.Mont.create: even modulus";
    let bits = bit_length modulus in
    if bits > max_bits then invalid_arg "Bigint.Mont.create: modulus too wide";
    let k = (bits + 63) / 64 in
    let buf = Bytes.create (8 * (1 + (3 * k))) in
    let put slot v =
      let be = to_bytes_be ~pad_to:(8 * k) v in
      for i = 0 to k - 1 do
        Bytes.set_int64_le buf
          (8 * (1 + (slot * k) + i))
          (String.get_int64_be be (8 * (k - 1 - i)))
      done
    in
    let rr = rem (shift_left one (128 * k)) modulus in
    put 0 modulus;
    put 1 rr;
    put 2 (rem (shift_left one (64 * k)) modulus);
    Bytes.set_int64_le buf 0 (neg_inv64 (Bytes.get_int64_le buf 8));
    { modulus; rr; words = Bytes.unsafe_to_string buf }

  let words c = (String.length c.words / 8 - 1) / 3
  let reduce c x = if compare x c.modulus < 0 then x else rem x c.modulus

  (* The kernel writes its result as big-endian bytes of the modulus
     width. *)
  let run stub c a b =
    let out = Bytes.create (8 * words c) in
    stub c.words a b out;
    of_bytes_be (Bytes.unsafe_to_string out)

  let pow c ~base ~exp =
    if bit_length exp > max_bits then
      invalid_arg "Bigint.Mont.pow: exponent too wide";
    Pvr_obs.incr obs_mont_pow;
    run pow_stub c (reduce c base) exp

  let mul c a b = run mul_stub c (reduce c a) (reduce c b)
  let to_mont c x = mul c x c.rr
end

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if
    is_even modulus
    || bit_length modulus > Mont.max_bits
    || bit_length exp > Mont.max_bits
  then mod_pow_naive ~base:b ~exp ~modulus
  else Mont.pow (Mont.create modulus) ~base:b ~exp

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid over naturals, tracking signed Bezout coefficients as
   (sign, magnitude) pairs. *)
let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  let a = rem a m in
  if is_zero a then raise Not_found;
  (* Invariants: r_i = s_i * a + t_i * m (signs tracked separately). *)
  let rec go r0 r1 (s0_neg, s0) (s1_neg, s1) =
    if is_zero r1 then begin
      if not (equal r0 one) then raise Not_found;
      if s0_neg then sub m (rem s0 m) else rem s0 m
    end
    else begin
      let q, r2 = divmod r0 r1 in
      (* s2 = s0 - q * s1, with signs. *)
      let qs1 = mul q s1 in
      let s2_neg, s2 =
        if s0_neg = s1_neg then
          if compare s0 qs1 >= 0 then (s0_neg, sub s0 qs1)
          else (not s0_neg, sub qs1 s0)
        else (s0_neg, add s0 qs1)
      in
      go r1 r2 (s1_neg, s1) (s2_neg, s2)
    end
  in
  go m a (false, zero) (false, one)

let random_bits rng n =
  if n <= 0 then zero
  else begin
    let nbytes = (n + 7) / 8 in
    let s = Drbg.generate rng nbytes in
    let v = of_bytes_be s in
    let excess = (nbytes * 8) - n in
    shift_right v excess
  end

let random_below rng bound =
  if is_zero bound then invalid_arg "Bigint.random_below: zero bound";
  let n = bit_length bound in
  let rec draw () =
    let v = random_bits rng n in
    if compare v bound < 0 then v else draw ()
  in
  draw ()

let random_odd_bits rng n =
  if n < 2 then invalid_arg "Bigint.random_odd_bits: need at least 2 bits";
  let v = random_bits rng n in
  (* Force the top bit (exact bit width) and the bottom bit (odd). *)
  let v = if test_bit v (n - 1) then v else add v (shift_left one (n - 1)) in
  if is_even v then add v one else v
