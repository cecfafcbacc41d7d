let small_primes =
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 999 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = 999 downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

(* Returns true if [a] witnesses that [n] is composite.  [ctx] is n's
   Montgomery context and [minus_one] the Montgomery form of n-1: the
   squarings of x = a^d run in Montgomery form, where x^2 = n-1 exactly
   when the Montgomery forms agree. *)
let miller_rabin_witness ctx ~n1 ~minus_one d r a =
  let x = Bigint.Mont.pow ctx ~base:a ~exp:d in
  if Bigint.equal x Bigint.one || Bigint.equal x n1 then false
  else begin
    let xm = ref (Bigint.Mont.to_mont ctx x) in
    let composite = ref true in
    (try
       for _ = 1 to r - 1 do
         xm := Bigint.Mont.mul ctx !xm !xm;
         if Bigint.equal !xm minus_one then begin
           composite := false;
           raise Exit
         end
       done
     with Exit -> ());
    !composite
  end

let is_probably_prime ?(rounds = 32) rng n =
  if Bigint.compare n Bigint.two < 0 then false
  else if Bigint.equal n Bigint.two then true
  else if Bigint.is_even n then false
  else begin
    let small_factor =
      Array.exists
        (fun p ->
          let pb = Bigint.of_int p in
          Bigint.compare n pb > 0 && Bigint.rem_int n p = 0)
        small_primes
    in
    let is_small_prime =
      Bigint.bit_length n <= 10
      && Array.exists (fun p -> Bigint.equal n (Bigint.of_int p)) small_primes
    in
    if is_small_prime then true
    else if small_factor then false
    else begin
      (* Write n-1 = d * 2^r with d odd. *)
      let n1 = Bigint.sub_int n 1 in
      let r = ref 0 in
      let d = ref n1 in
      while Bigint.is_even !d do
        d := Bigint.shift_right !d 1;
        incr r
      done;
      let n3 = Bigint.sub_int n 3 in
      let ctx = Bigint.Mont.create n in
      let minus_one = Bigint.Mont.to_mont ctx n1 in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          let a = Bigint.add_int (Bigint.random_below rng n3) 2 in
          if miller_rabin_witness ctx ~n1 ~minus_one !d !r a then false
          else rounds_left (k - 1)
        end
      in
      rounds_left rounds
    end
  end

let generate rng ~bits =
  if bits < 4 then invalid_arg "Prime.generate: need at least 4 bits";
  let rec attempt () =
    let cand = Bigint.random_odd_bits rng bits in
    (* Also force the second-highest bit so products reach full width. *)
    let cand =
      if Bigint.test_bit cand (bits - 2) then cand
      else Bigint.add cand (Bigint.shift_left Bigint.one (bits - 2))
    in
    if is_probably_prime rng cand then cand else attempt ()
  in
  attempt ()
