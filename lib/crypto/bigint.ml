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
  if d < base then snd (divmod_limb a d)
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

(* ---- Montgomery arithmetic (odd moduli) --------------------------------

   Operands live as fixed-width little-endian limb vectors of the modulus
   width [k]; a value [x] is represented as [x * R mod m] with
   [R = base^k].  [mont_mul] is word-by-word CIOS (Koç–Acar–Kaliski):
   interleaved multiply and reduce, one limb of the multiplier at a time.

   Bounds: with 31-bit limbs the inner sum [t.(j) + ai * b.(j) + carry] is
   at most (2^31-1) + (2^31-1)^2 + (2^31-1) = 2^62 - 1 = max_int, so CIOS
   runs on native ints with no overflow. *)

type mont = {
  m : int array;  (* modulus limbs, width k *)
  k : int;
  m0' : int;  (* -m^-1 mod 2^31 *)
  rr : t;  (* R^2 mod m *)
  one_r : int array;  (* R mod m, i.e. Montgomery form of 1 *)
  t : int array;  (* CIOS scratch, width k+2; contexts are single-owner *)
}

(* Inverse of an odd limb modulo 2^31 by Newton doubling: each step doubles
   the number of correct low bits, so five steps cover 31 bits.  Products of
   two 31-bit values stay below max_int. *)
let inv_limb m0 =
  let x = ref 1 in
  for _ = 1 to 5 do
    x := !x * ((2 - (m0 * !x)) land limb_mask) land limb_mask
  done;
  !x

let mont_pad ctx (a : t) =
  let out = Array.make ctx.k 0 in
  Array.blit a 0 out 0 (Array.length a);
  out

(* r := a * b * R^-1 mod m.  [a], [b], [r] are width-k vectors; [r] may
   alias [a] or [b] (all reads happen before the final writeback). *)
let mont_mul ctx (a : int array) (b : int array) (r : int array) =
  let k = ctx.k and m = ctx.m and m0' = ctx.m0' and t = ctx.t in
  Array.fill t 0 (k + 2) 0;
  for i = 0 to k - 1 do
    let ai = Array.unsafe_get a i in
    let c = ref 0 in
    for j = 0 to k - 1 do
      let s = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + !c in
      Array.unsafe_set t j (s land limb_mask);
      c := s lsr limb_bits
    done;
    let s = t.(k) + !c in
    t.(k) <- s land limb_mask;
    t.(k + 1) <- t.(k + 1) + (s lsr limb_bits);
    (* One reduction step: add m_ * m so the low limb cancels, shift down. *)
    let m_ = t.(0) * m0' land limb_mask in
    let c = ref ((t.(0) + (m_ * m.(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s = Array.unsafe_get t j + (m_ * Array.unsafe_get m j) + !c in
      Array.unsafe_set t (j - 1) (s land limb_mask);
      c := s lsr limb_bits
    done;
    let s = t.(k) + !c in
    t.(k - 1) <- s land limb_mask;
    t.(k) <- t.(k + 1) + (s lsr limb_bits);
    t.(k + 1) <- 0
  done;
  (* t < 2m here; one conditional subtract restores t < m. *)
  let ge =
    t.(k) > 0
    ||
    let rec cmp j =
      j < 0 || (if t.(j) <> m.(j) then t.(j) > m.(j) else cmp (j - 1))
    in
    cmp (k - 1)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = t.(j) - m.(j) - !borrow in
      if d < 0 then begin
        r.(j) <- d + base;
        borrow := 1
      end
      else begin
        r.(j) <- d;
        borrow := 0
      end
    done
  end
  else Array.blit t 0 r 0 k

let mont_create (modulus : t) =
  let k = Array.length modulus in
  let m = Array.copy modulus in
  let m0' = base - inv_limb m.(0) land limb_mask in
  let rr = rem (shift_left one (2 * k * limb_bits)) modulus in
  let ctx =
    { m; k; m0' = m0' land limb_mask; rr; one_r = [||]; t = Array.make (k + 2) 0 }
  in
  let one_r = mont_pad ctx (rem (shift_left one (k * limb_bits)) modulus) in
  { ctx with one_r }

let to_mont ctx (a : t) r = mont_mul ctx (mont_pad ctx a) (mont_pad ctx ctx.rr) r

(* Fixed-window (w=4) exponentiation: 16-entry table of Montgomery powers,
   then MSB-first 4-bit windows with 4 squarings between digits. *)
let window_bits = 4

(* Exponents up to this many bits (the public exponent 65537 among them)
   run plain left-to-right binary exponentiation: a low-weight exponent
   pays one squaring per bit and one multiply per set bit, instead of the
   window table's 14 precomputed multiplies. *)
let short_exp_bits = 32

let mod_pow_mont ~base:b ~exp ~modulus =
  let ctx = mont_create modulus in
  let k = ctx.k in
  let nbits = bit_length exp in
  let acc = Array.make k 0 in
  if nbits = 0 then Array.blit ctx.one_r 0 acc 0 k
  else if nbits <= short_exp_bits then begin
    let bm = Array.make k 0 in
    to_mont ctx (rem b modulus) bm;
    Array.blit bm 0 acc 0 k;
    for i = nbits - 2 downto 0 do
      mont_mul ctx acc acc acc;
      if test_bit exp i then mont_mul ctx acc bm acc
    done
  end
  else begin
    let table = Array.init (1 lsl window_bits) (fun _ -> Array.make k 0) in
    Array.blit ctx.one_r 0 table.(0) 0 k;
    to_mont ctx (rem b modulus) table.(1);
    for i = 2 to (1 lsl window_bits) - 1 do
      mont_mul ctx table.(i - 1) table.(1) table.(i)
    done;
    let nwin = (nbits + window_bits - 1) / window_bits in
    let digit w =
      let lo = w * window_bits in
      let rec go i acc =
        if i < 0 then acc
        else
          go (i - 1) ((acc lsl 1) lor (if test_bit exp (lo + i) then 1 else 0))
      in
      go (window_bits - 1) 0
    in
    Array.blit table.(digit (nwin - 1)) 0 acc 0 k;
    for w = nwin - 2 downto 0 do
      for _ = 1 to window_bits do
        mont_mul ctx acc acc acc
      done;
      let d = digit w in
      if d <> 0 then mont_mul ctx acc table.(d) acc
    done
  end;
  (* Leave Montgomery form: multiply by 1 (un-Montgomeried). *)
  let out = Array.make k 0 in
  let one_v = Array.make k 0 in
  one_v.(0) <- 1;
  mont_mul ctx acc one_v out;
  normalize out

let mod_pow ~base:b ~exp ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if not (is_even modulus) then
    mod_pow_mont ~base:b ~exp ~modulus
  else mod_pow_naive ~base:b ~exp ~modulus

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
