(* Tests for the §3.1 SMC strawman in pvr_baselines: boolean circuits, XOR
   sharing, the GMW evaluation and the calibrated cost models. *)

module S = Pvr_baselines
module C = Pvr_crypto

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let bits_of_int ~width v = Array.init width (fun i -> (v lsr i) land 1 = 1)

let int_of_bits bits =
  List.fold_left
    (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc)
    0
    (List.mapi (fun i b -> (i, b)) bits)

(* ---- Circuits ------------------------------------------------------------- *)

let circuit_less_than =
  qtest "less_than circuit = (<)"
    QCheck2.Gen.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let c = S.Circuit.less_than ~bits:8 in
      let inputs = Array.append (bits_of_int ~width:8 a) (bits_of_int ~width:8 b) in
      S.Circuit.eval c inputs = [ a < b ])

let circuit_minimum =
  qtest "minimum circuit = List.fold min"
    QCheck2.Gen.(list_size (int_range 1 6) (int_bound 63))
    (fun vals ->
      let k = List.length vals in
      let c = S.Circuit.minimum ~bits:6 ~k in
      let inputs =
        Array.concat (List.map (bits_of_int ~width:6) vals)
      in
      int_of_bits (S.Circuit.eval c inputs)
      = List.fold_left min max_int vals)

let circuit_majority =
  qtest "majority circuit = popcount > n/2"
    QCheck2.Gen.(list_size (int_range 1 15) bool)
    (fun votes ->
      let n = List.length votes in
      let c = S.Circuit.majority_vote ~voters:n in
      let count = List.length (List.filter Fun.id votes) in
      S.Circuit.eval c (Array.of_list votes) = [ count > n / 2 ])

let circuit_stats_sane () =
  let c = S.Circuit.minimum ~bits:8 ~k:4 in
  check_bool "has ANDs" true (S.Circuit.and_count c > 0);
  check_bool "depth <= ands" true (S.Circuit.and_depth c <= S.Circuit.and_count c);
  check_bool "size >= ands" true (S.Circuit.size c >= S.Circuit.and_count c)

let circuit_minimum_grows_with_k () =
  let ands k = S.Circuit.and_count (S.Circuit.minimum ~bits:8 ~k) in
  check_bool "monotone" true (ands 2 < ands 4 && ands 4 < ands 8)

let circuit_bad_input_count () =
  let c = S.Circuit.less_than ~bits:4 in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Circuit.eval: wrong input count") (fun () ->
      ignore (S.Circuit.eval c (Array.make 3 false)))

(* ---- Secret sharing --------------------------------------------------------- *)

let share_reconstruct =
  qtest "share then reconstruct"
    QCheck2.Gen.(triple small_int (int_range 2 7) bool)
    (fun (seed, parties, secret) ->
      let rng = C.Drbg.of_int_seed seed in
      S.Secret_share.reconstruct (S.Secret_share.share rng ~parties secret)
      = secret)

let share_hides_from_strict_subset () =
  (* Any n-1 shares are uniformly distributed: flipping the secret with the
     same randomness changes exactly one share. *)
  let rng1 = C.Drbg.of_int_seed 5 and rng2 = C.Drbg.of_int_seed 5 in
  let s_true = S.Secret_share.share rng1 ~parties:4 true in
  let s_false = S.Secret_share.share rng2 ~parties:4 false in
  let diffs = ref 0 in
  Array.iteri (fun i a -> if a <> s_false.(i) then incr diffs) s_true;
  check_int "one share differs" 1 !diffs

let share_bits_roundtrip =
  qtest "share_bits reconstructs" QCheck2.Gen.(pair small_int (int_range 2 5))
    (fun (seed, parties) ->
      let rng = C.Drbg.of_int_seed seed in
      let secrets = Array.init 20 (fun i -> (seed lsr (i mod 8)) land 1 = 1) in
      S.Secret_share.reconstruct_bits
        (S.Secret_share.share_bits rng ~parties secrets)
      = secrets)

(* ---- GMW ---------------------------------------------------------------------- *)

let gmw_matches_plain =
  qtest "GMW result = plain evaluation" ~count:25
    QCheck2.Gen.(triple small_int (int_range 2 5) (list_size (int_range 1 4) (int_bound 63)))
    (fun (seed, parties, vals) ->
      let rng = C.Drbg.of_int_seed seed in
      let k = List.length vals in
      let c = S.Circuit.minimum ~bits:6 ~k in
      let inputs = Array.concat (List.map (bits_of_int ~width:6) vals) in
      let plain = S.Circuit.eval c inputs in
      let secure, stats = S.Gmw.run rng ~parties c ~inputs in
      secure = plain
      && stats.S.Gmw.and_gates = S.Circuit.and_count c
      && stats.S.Gmw.rounds = S.Circuit.and_depth c + 1
      && stats.S.Gmw.bits_sent > 0)

let gmw_needs_two_parties () =
  let c = S.Circuit.less_than ~bits:2 in
  Alcotest.check_raises "1 party" (Invalid_argument "Gmw.run: need at least 2 parties")
    (fun () ->
      ignore
        (S.Gmw.run (C.Drbg.of_int_seed 1) ~parties:1 c ~inputs:(Array.make 4 false)))

let gmw_traffic_scales_with_parties () =
  let c = S.Circuit.minimum ~bits:6 ~k:3 in
  let inputs = Array.make 18 false in
  let _, s2 = S.Gmw.run (C.Drbg.of_int_seed 1) ~parties:2 c ~inputs in
  let _, s8 = S.Gmw.run (C.Drbg.of_int_seed 1) ~parties:8 c ~inputs in
  check_bool "more parties, more traffic" true
    (s8.S.Gmw.bits_sent > s2.S.Gmw.bits_sent)

(* ---- Cost model ----------------------------------------------------------------- *)

let cost_model_anchor () =
  let m = S.Cost_model.default in
  let predicted = S.Cost_model.anchor_check m in
  check_bool
    (Printf.sprintf "anchor %.2f within 1%% of 15s" predicted)
    true
    (Float.abs (predicted -. 15.0) < 0.15)

let cost_model_scaling_shape () =
  let m = S.Cost_model.default in
  let t k =
    S.Cost_model.smc_seconds_for m (S.Circuit.minimum ~bits:8 ~k) ~parties:(k + 1)
  in
  check_bool "grows with k" true (t 2 < t 4 && t 4 < t 8 && t 8 < t 16);
  (* The paper's point: SMC per update is prohibitive compared to a
     signature (~ms). *)
  check_bool "k=8 is orders of magnitude beyond 2ms" true (t 8 > 1.0)

let cost_model_zkp_linear () =
  let m = S.Cost_model.default in
  check_bool "zkp linear in gates" true
    (S.Cost_model.zkp_seconds m ~gates:2000
    = 2. *. S.Cost_model.zkp_seconds m ~gates:1000)

let xor_only_circuit_free_in_gmw () =
  (* A parity circuit has zero AND gates: GMW evaluates it with no triples
     and a single reconstruction round. *)
  let b = S.Circuit.Builder.create ~n_inputs:8 in
  let out =
    List.fold_left
      (fun acc i -> S.Circuit.Builder.bxor b acc (S.Circuit.Builder.input b i))
      (S.Circuit.Builder.input b 0)
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  let c = S.Circuit.Builder.finish b ~outputs:[ out ] in
  check_int "no ANDs" 0 (S.Circuit.and_count c);
  check_int "depth 0" 0 (S.Circuit.and_depth c);
  let rng = C.Drbg.of_int_seed 9 in
  let inputs = Array.init 8 (fun i -> i mod 2 = 0) in
  let secure, stats = S.Gmw.run rng ~parties:3 c ~inputs in
  check_bool "parity right" true (secure = S.Circuit.eval c inputs);
  check_int "one round" 1 stats.S.Gmw.rounds

let cost_model_recalibration () =
  (* A different anchor scales the gate cost proportionally. *)
  let m15 = S.Cost_model.calibrate ~anchor_seconds:15.0 ~voters:5 in
  let m30 = S.Cost_model.calibrate ~anchor_seconds:30.0 ~voters:5 in
  check_bool "double anchor, roughly double gate cost" true
    (m30.S.Cost_model.c_gate_s > 1.9 *. m15.S.Cost_model.c_gate_s)

let suite =
  [
    ("xor-only circuit free in GMW", `Quick, xor_only_circuit_free_in_gmw);
    ("cost model recalibration", `Quick, cost_model_recalibration);
    circuit_less_than;
    circuit_minimum;
    circuit_majority;
    ("circuit stats sane", `Quick, circuit_stats_sane);
    ("circuit minimum grows with k", `Quick, circuit_minimum_grows_with_k);
    ("circuit bad input count", `Quick, circuit_bad_input_count);
    share_reconstruct;
    ("share hides from subset", `Quick, share_hides_from_strict_subset);
    share_bits_roundtrip;
    gmw_matches_plain;
    ("gmw needs two parties", `Quick, gmw_needs_two_parties);
    ("gmw traffic scales with parties", `Quick, gmw_traffic_scales_with_parties);
    ("cost model hits the 15s anchor", `Quick, cost_model_anchor);
    ("cost model scaling shape", `Quick, cost_model_scaling_shape);
    ("cost model zkp linear", `Quick, cost_model_zkp_linear);
  ]
