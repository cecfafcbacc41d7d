(* Benchmark harness: regenerates every quantitative artifact of the paper
   (DESIGN.md §4, EXPERIMENTS.md).  The paper is a workshop sketch with no
   data tables, so each "experiment" reproduces a claim or figure scenario:

     E1  Fig.1 + §3.3  minimum-operator rounds vs. number of providers
     E2  §3.2          existential operator + ring-signature variant
     E3  Fig.2 + §3.5-3.7  generalized graph protocol
     E4  §3.8          primitive costs (SHA-256, RSA-1024 ≈ 2 ms claim)
     E5  §3.8          batched signing with a small MHT during bursts
     E6  §3.1          strawman comparison: PVR vs GMW-SMC vs generic ZKP
     E7  §2.3/§1       confidentiality: leakage + Gao-inference attack
     E8  §2.3          detection/evidence/accuracy fault-injection matrix
     E10 §2.3          the same properties over a lossy simulated network

   Bechamel (OLS over monotonic clock) measures the headline operation of
   each experiment; the parameter sweeps use a simple repeat-timer since
   they print whole tables. *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg
module C = Pvr_crypto
module B = Pvr_baselines
module Obs = Pvr_obs
module J = Pvr_obs.Json

(* Counter deltas attributable to one operation, as a JSON object. *)
let counted f =
  let before = Obs.Snapshot.capture () in
  let result = f () in
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  (result, d)

let delta d name = Obs.Snapshot.counter_value d name

let crypto_ops d =
  J.Obj
    [
      ("rsa_sign_ops", J.Int (delta d "crypto.rsa.sign.ops"));
      ("rsa_verify_ops", J.Int (delta d "crypto.rsa.verify.ops"));
      ("sha256_ops", J.Int (delta d "crypto.sha256.ops"));
      ("sha256_bytes", J.Int (delta d "crypto.sha256.bytes"));
      ("sha256_blocks", J.Int (delta d "crypto.sha256.blocks"));
      ("gossip_exchanges", J.Int (delta d "gossip.exchanges"));
      ("wire_commit_bytes", J.Int (delta d "wire.commit.bytes"));
    ]

let asn = G.Asn.of_int
let prefix0 = G.Prefix.of_string "10.0.0.0/8"
let a_as = asn 1
let b_as = asn 100

let rng0 = C.Drbg.of_int_seed 2026

(* A big shared keyring: A, B and up to 64 providers, RSA-1024 as in §3.8. *)
let max_k = 64
let providers = List.init max_k (fun i -> asn (10 + i))

let keyring =
  Printf.printf "[setup] generating %d RSA-1024 key pairs...\n%!" (max_k + 2);
  let t0 = Unix.gettimeofday () in
  let kr = P.Keyring.create ~bits:1024 rng0 (a_as :: b_as :: providers) in
  Printf.printf "[setup] done in %.1fs\n%!" (Unix.gettimeofday () -. t0);
  kr

let mk_route n len =
  let path = List.init len (fun j -> if j = 0 then n else asn (5000 + j)) in
  let base = G.Route.originate ~asn:n prefix0 in
  { base with G.Route.as_path = path; next_hop = n }

let routes_for k =
  List.init k (fun i ->
      let n = List.nth providers i in
      (n, mk_route n (1 + (i mod 8))))

(* ---- timing helpers ------------------------------------------------------ *)

let time_ms ?(min_runs = 3) ?(min_time = 0.2) f =
  (* Mean wall-clock milliseconds of [f ()]. *)
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 in
  while !runs < min_runs || Unix.gettimeofday () -. t0 < min_time do
    ignore (f ());
    incr runs
  done;
  (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int !runs

let header title = Printf.printf "\n=== %s ===\n%!" title

(* ---- E1: minimum operator (Fig. 1 / §3.3) -------------------------------- *)

let min_round_once k =
  let rng = C.Drbg.of_int_seed (100 + k) in
  P.Runner.min_round P.Adversary.Honest rng keyring ~prover:a_as
    ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes:(routes_for k)

let e1 () =
  header "E1  minimum-operator verification (Figure 1, §3.3)";
  Printf.printf "%4s  %12s  %12s  %12s  %10s  %8s\n" "k" "round ms"
    "ms (no obs)" "ms/provider" "commit B" "msgs";
  let rows =
    List.map
      (fun k ->
        let ms = time_ms (fun () -> min_round_once k) in
        (* Same round with instrumentation off: the acceptance bar is that
           the difference stays within noise. *)
        Obs.set_enabled false;
        let ms_disabled = time_ms (fun () -> min_round_once k) in
        Obs.set_enabled true;
        let r, d = counted (fun () -> min_round_once k) in
        assert (not r.P.Runner.detected);
        (* The published runner counters and the report are two views of the
           same tally — they must agree for a single round. *)
        assert (delta d "runner.messages" = r.P.Runner.messages);
        assert (delta d "runner.commit_bytes" = r.P.Runner.commit_bytes);
        Printf.printf "%4d  %12.2f  %12.2f  %12.2f  %10d  %8d\n%!" k ms
          ms_disabled
          (ms /. float_of_int k)
          r.P.Runner.commit_bytes r.P.Runner.messages;
        J.Obj
          [
            ("k", J.Int k);
            ("round_ms", J.Float ms);
            ("round_ms_instrumentation_disabled", J.Float ms_disabled);
            ("messages", J.Int r.P.Runner.messages);
            ("commit_bytes", J.Int r.P.Runner.commit_bytes);
            ("ops", crypto_ops d);
          ])
      [ 2; 4; 8; 16; 32; 64 ]
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- E2: existential operator (§3.2) -------------------------------------- *)

let e2 () =
  header "E2  existential operator (§3.2) + ring-signature variant";
  Printf.printf "%4s  %12s  %14s  %14s\n" "k" "round ms" "ring sign ms"
    "ring verify ms";
  let rows =
  List.map
    (fun k ->
      let rng = C.Drbg.of_int_seed (200 + k) in
      let routes = routes_for k in
      let ring = List.map fst routes in
      (* The whole §3.2 round, every party included: the graph round of
         export-if-any ([op:exists]).  Every honest round must be clean. *)
      let round_ms =
        time_ms (fun () ->
            let r =
              P.Runner.graph_round rng keyring ~prover:a_as ~beneficiary:b_as
                ~epoch:1 ~prefix:prefix0
                ~promise:(R.Promise.Export_if_any ring) ~routes
            in
            assert (not r.P.Runner.detected))
      in
      let signer = List.hd ring in
      let sig_ms =
        time_ms ~min_time:0.1 (fun () ->
            P.Proto_common.ring_announce rng keyring ~ring ~signer ~epoch:1
              ~prefix:prefix0)
      in
      let rs =
        P.Proto_common.ring_announce rng keyring ~ring ~signer ~epoch:1
          ~prefix:prefix0
      in
      let verify_ms =
        time_ms ~min_time:0.1 (fun () ->
            assert
              (P.Proto_common.ring_check keyring ~ring ~epoch:1
                 ~prefix:prefix0 rs))
      in
      assert
        (not
           (P.Proto_common.ring_check keyring ~ring ~epoch:2 ~prefix:prefix0 rs));
      Printf.printf "%4d  %12.2f  %14.2f  %14.2f\n%!" k round_ms sig_ms
        verify_ms;
      J.Obj
        [
          ("k", J.Int k);
          ("round_ms", J.Float round_ms);
          ("ring_sign_ms", J.Float sig_ms);
          ("ring_verify_ms", J.Float verify_ms);
        ])
    [ 2; 4; 8; 16 ]
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- E3: generalized graph protocol (Fig. 2, §3.5-3.7) -------------------- *)

let e3 () =
  header "E3  route-flow-graph protocol (Figure 2, §3.5-3.7)";
  Printf.printf "%-22s  %4s  %9s  %10s  %12s\n" "promise" "k" "vertices"
    "round ms" "commit B";
  let cases =
    [
      ( "shortest-from (Fig.1)", 4,
        R.Promise.Shortest_from (List.map fst (routes_for 4)) );
      ( "shortest-from (Fig.1)", 8,
        R.Promise.Shortest_from (List.map fst (routes_for 8)) );
      ( "prefer-unless (Fig.2)", 4,
        R.Promise.Prefer_unless_shorter
          {
            fallback = List.tl (List.map fst (routes_for 4));
            override = fst (List.hd (routes_for 4));
          } );
      ( "prefer-unless (Fig.2)", 8,
        R.Promise.Prefer_unless_shorter
          {
            fallback = List.tl (List.map fst (routes_for 8));
            override = fst (List.hd (routes_for 8));
          } );
      ( "export-if-any (§3.2)", 4,
        R.Promise.Export_if_any (List.map fst (routes_for 4)) );
    ]
  in
  let rows =
    List.map
      (fun (name, k, promise) ->
        let rng = C.Drbg.of_int_seed (300 + k) in
        let run () =
          P.Runner.graph_round rng keyring ~prover:a_as ~beneficiary:b_as
            ~epoch:1 ~prefix:prefix0 ~promise ~routes:(routes_for k)
        in
        let ms = time_ms run in
        let r, d = counted run in
        assert (not r.P.Runner.detected);
        assert (delta d "runner.messages" = r.P.Runner.messages);
        assert (delta d "runner.commit_bytes" = r.P.Runner.commit_bytes);
        let rfg =
          R.Promise.reference_rfg promise ~beneficiary:b_as
            ~neighbors:(List.map fst (routes_for k))
        in
        Printf.printf "%-22s  %4d  %9d  %10.2f  %12d\n%!" name k
          (List.length (R.Rfg.vertex_ids rfg))
          ms r.P.Runner.commit_bytes;
        J.Obj
          [
            ("promise", J.String name);
            ("k", J.Int k);
            ("vertices", J.Int (List.length (R.Rfg.vertex_ids rfg)));
            ("round_ms", J.Float ms);
            ("messages", J.Int r.P.Runner.messages);
            ("commit_bytes", J.Int r.P.Runner.commit_bytes);
            ("ops", crypto_ops d);
          ])
      cases
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- E4: primitive costs (§3.8) -------------------------------------------- *)

let e4 () =
  header "E4  primitive costs (§3.8: \"RSA-1024 ~2ms\", \"SHA-256 cheap\")";
  let payload64 = String.make 64 'x' in
  let payload1k = String.make 1024 'x' in
  (* Before/after: the "naive" column exponentiates by square-and-multiply
     ([Rsa.sign_plain]: plain x^d mod n; verify: [Bigint.mod_pow_naive] of
     the signature), the "fast" column through CRT and the C Montgomery
     kernel over the key's contexts.  RSA-1024 is the fixture keyring's
     width; RSA-512 (the engine default) and RSA-2048 get one key each.
     For hashing, "naive" is the general buffering one-shot on the OCaml
     compression ([Sha256.Reference]) and "fast" the precomputed-layout /
     precomputed-midstate variants on the host's kernel (the SHA
     extensions where the CPU has them). *)
  let rsa_keys =
    [
      (512, C.Rsa.generate (C.Drbg.of_int_seed 512) ~bits:512);
      (1024, P.Keyring.private_key keyring a_as);
      (2048, C.Rsa.generate (C.Drbg.of_int_seed 2048) ~bits:2048);
    ]
  in
  let recover mod_pow key sig_ =
    let pub = key.C.Rsa.pub in
    mod_pow ~base:(C.Bigint.of_bytes_be sig_) ~exp:pub.C.Rsa.e
      ~modulus:pub.C.Rsa.n
  in
  let rsa_pairs =
    List.concat_map
      (fun (bits, key) ->
        let sig_ = C.Rsa.sign key payload64 in
        (* Fast paths must be bit-exact drop-ins: CRT ≡ plain x^d mod n,
           and both exponentiation routes recover the same encoded
           message. *)
        assert (C.Rsa.sign_plain key payload64 = sig_);
        assert (
          C.Bigint.equal
            (recover C.Bigint.mod_pow_naive key sig_)
            (recover C.Bigint.mod_pow key sig_));
        [
          ( Printf.sprintf "rsa-%d sign" bits,
            (fun () -> ignore (C.Rsa.sign_plain key payload64)),
            fun () -> ignore (C.Rsa.sign key payload64) );
          ( Printf.sprintf "rsa-%d verify" bits,
            (fun () -> ignore (recover C.Bigint.mod_pow_naive key sig_)),
            fun () ->
              ignore (C.Rsa.verify key.C.Rsa.pub ~msg:payload64 ~signature:sig_)
          );
        ])
      rsa_keys
  in
  let fixed64 = C.Sha256.Fixed.create 64 in
  let reference = C.Sha256.Reference.init () in
  let hmac_key = C.Hmac.Key.create "e4-bench-key" in
  let pairs =
    rsa_pairs
    @ [
        ( "sha256 64B",
          (fun () -> ignore (C.Sha256.digest_with reference payload64)),
          fun () -> ignore (C.Sha256.Fixed.digest fixed64 payload64) );
        ( "sha256 1KiB",
          (fun () -> ignore (C.Sha256.digest_with reference payload1k)),
          fun () -> ignore (C.Sha256.digest payload1k) );
        ( "hmac 64B",
          (fun () -> ignore (C.Hmac.mac ~key:"e4-bench-key" payload64)),
          fun () -> ignore (C.Hmac.mac_with hmac_key payload64) );
        ( "commitment",
          (fun () ->
            ignore (C.Commitment.commit (C.Drbg.of_int_seed 1) payload64)),
          fun () ->
            ignore (C.Commitment.commit (C.Drbg.of_int_seed 1) payload64) );
      ]
  in
  Printf.printf "%-16s  %12s  %12s  %8s   paper (2011 hw)\n" "operation"
    "naive ms" "fast ms" "speedup";
  let rows =
    List.map
      (fun (name, naive, fast) ->
        let naive_ms = time_ms ~min_time:0.1 naive in
        let fast_ms = time_ms ~min_time:0.1 fast in
        let note =
          match name with
          | "rsa-1024 sign" -> "~2 ms"
          | "sha256 64B" -> "\"relatively cheap\""
          | _ -> ""
        in
        Printf.printf "%-16s  %12.4f  %12.4f  %7.1fx   %s\n%!" name naive_ms
          fast_ms (naive_ms /. fast_ms) note;
        (name, naive_ms, fast_ms, note))
      pairs
  in
  let jrows =
    List.map
      (fun (name, naive_ms, fast_ms, note) ->
        J.Obj
          [
            ("operation", J.String name);
            ("naive_ms", J.Float naive_ms);
            ("measured_ms", J.Float fast_ms);
            ("speedup", J.Float (naive_ms /. fast_ms));
            ("paper_note", J.String note);
          ])
      rows
  in
  (* The §3.8 overhead argument, machine-checkable: one RSA signature plus
     k SHA-256 commitments per verified update. *)
  let ms_of n =
    let _, _, fast_ms, _ = List.find (fun (m, _, _, _) -> m = n) rows in
    fast_ms
  in
  let naive_ms_of n =
    let _, naive_ms, _, _ = List.find (fun (m, _, _, _) -> m = n) rows in
    naive_ms
  in
  let sign_ms = ms_of "rsa-1024 sign" in
  let sha_ms = ms_of "sha256 64B" in
  J.Obj
    [
      ("rows", J.List jrows);
      ( "s38_claim",
        J.Obj
          [
            ("paper_rsa1024_sign_ms", J.Float 2.0);
            ("measured_rsa1024_sign_ms", J.Float sign_ms);
            ("naive_rsa1024_sign_ms", J.Float (naive_ms_of "rsa-1024 sign"));
            ("measured_sha256_64B_ms", J.Float sha_ms);
            ( "per_update_overhead_ms_k32",
              J.Float (sign_ms +. (32.0 *. sha_ms)) );
          ] );
    ]

(* ---- E5: batch signing with a small MHT (§3.8) ------------------------------ *)

(* A's announcements of a burst of routes, one distinct statement each. *)
let burst_announces routes =
  List.mapi
    (fun i route ->
      { P.Wire.ann_epoch = 1 + i; ann_to = b_as; ann_route = route })
    routes

(* The engine's sign phase for one signer: one [Wire.sign_batch] (one RSA
   signature over a Merkle root), then every statement verified on its
   own, as each receiver does. *)
let sign_verify_batched payloads =
  let drafts =
    List.map (P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_announce) payloads
  in
  P.Wire.sign_batch keyring (List.map (fun d -> P.Wire.Pending d) drafts);
  List.map
    (fun d ->
      let s = P.Wire.signed d in
      assert (P.Wire.verify keyring ~encode:P.Wire.encode_announce s);
      String.length s.P.Wire.signature)
    drafts

let e5 () =
  header "E5  batched signing during update bursts (§3.8)";
  Printf.printf "%6s  %16s  %16s  %10s  %10s\n" "batch" "per-route ms"
    "(individual)" "amortize" "sig bytes";
  let rows =
  List.map
    (fun batch ->
      let rng = C.Drbg.of_int_seed (500 + batch) in
      let events =
        G.Update_gen.bursty rng ~duration_ms:1000 ~base_rate_per_s:10.0
          ~burst_every_ms:200 ~burst_size_mean:batch ~origin:(asn 9)
      in
      let pool =
        match G.Update_gen.batches ~window_ms:200 events with
        | b :: _ -> b
        | [] -> [ mk_route (asn 9) 3 ]
      in
      (* Normalize the window to exactly [batch] routes. *)
      let payloads =
        burst_announces
          (List.init batch (fun i -> List.nth pool (i mod List.length pool)))
      in
      let sig_bytes = List.hd (sign_verify_batched payloads) in
      let batched_ms = time_ms (fun () -> sign_verify_batched payloads) in
      let individual_ms =
        time_ms (fun () ->
            List.iter
              (fun p ->
                let s =
                  P.Wire.sign keyring ~as_:a_as ~encode:P.Wire.encode_announce p
                in
                assert (P.Wire.verify keyring ~encode:P.Wire.encode_announce s))
              payloads)
      in
      Printf.printf "%6d  %16.4f  %16.4f  %9.1fx  %10d\n%!" batch
        (batched_ms /. float_of_int batch)
        (individual_ms /. float_of_int batch)
        (individual_ms /. batched_ms)
        sig_bytes;
      J.Obj
        [
          ("batch", J.Int batch);
          ("batched_per_route_ms", J.Float (batched_ms /. float_of_int batch));
          ( "individual_per_route_ms",
            J.Float (individual_ms /. float_of_int batch) );
          ("amortization", J.Float (individual_ms /. batched_ms));
          ("signature_bytes", J.Int sig_bytes);
        ])
    [ 1; 4; 16; 64; 256 ]
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- E5b: commitment-strategy ablation (DESIGN §5) ---------------------------- *)

let e5b () =
  header "E5b ablation: per-bit commitments vs Merkle-committed bit vector";
  Printf.printf "%4s  %14s  %14s  %14s  %14s\n" "k" "publish B (pb)"
    "publish B (mv)" "open B (pb)" "open B (mv)";
  let rows =
    List.map
      (fun k ->
        let rng = C.Drbg.of_int_seed (550 + k) in
        let bits = List.init k (fun i -> i mod 3 = 0) in
        let t_pb, pub_pb = B.Bitvec.commit rng B.Bitvec.Per_bit bits in
        let t_mv, pub_mv = B.Bitvec.commit rng B.Bitvec.Merkle_vector bits in
        let pub_pb_b = B.Bitvec.published_bytes pub_pb
        and pub_mv_b = B.Bitvec.published_bytes pub_mv
        and open_pb_b = B.Bitvec.proof_bytes (B.Bitvec.open_bit t_pb (k / 2))
        and open_mv_b = B.Bitvec.proof_bytes (B.Bitvec.open_bit t_mv (k / 2)) in
        Printf.printf "%4d  %14d  %14d  %14d  %14d\n%!" k pub_pb_b pub_mv_b
          open_pb_b open_mv_b;
        J.Obj
          [
            ("k", J.Int k);
            ("publish_bytes_per_bit", J.Int pub_pb_b);
            ("publish_bytes_merkle", J.Int pub_mv_b);
            ("open_bytes_per_bit", J.Int open_pb_b);
            ("open_bytes_merkle", J.Int open_mv_b);
          ])
      [ 8; 16; 32; 64; 128 ]
  in
  print_endline
    "shape: publishing is O(k) vs O(1); a single disclosure is O(1) vs O(log k).";
  J.Obj [ ("rows", J.List rows) ]

(* ---- E6: strawman comparison (§3.1) ------------------------------------------ *)

let e6 () =
  header "E6  PVR vs SMC vs ZKP per BGP update (§3.1)";
  let model = B.Cost_model.default in
  Printf.printf "anchor: 5-player vote modeled at %.1f s (paper: ~15 s)\n"
    (B.Cost_model.anchor_check model);
  Printf.printf "%4s  %12s  %14s  %14s  %14s  %10s\n" "k" "PVR ms"
    "GMW sim ms" "SMC model s" "ZKP model s" "SMC/PVR";
  let rows =
  List.map
    (fun k ->
      let pvr_ms = time_ms (fun () -> min_round_once k) in
      let circuit = B.Circuit.minimum ~bits:8 ~k in
      let parties = k + 1 in
      let inputs = Array.init (8 * k) (fun i -> i mod 3 = 0) in
      let rng = C.Drbg.of_int_seed (600 + k) in
      let gmw_ms =
        time_ms ~min_time:0.1 (fun () -> B.Gmw.run rng ~parties circuit ~inputs)
      in
      let smc_s = B.Cost_model.smc_seconds_for model circuit ~parties in
      let zkp_s =
        B.Cost_model.zkp_seconds model ~gates:(B.Circuit.size circuit)
      in
      Printf.printf "%4d  %12.2f  %14.2f  %14.1f  %14.2f  %9.0fx\n%!" k pvr_ms
        gmw_ms smc_s zkp_s
        (smc_s *. 1000.0 /. pvr_ms);
      J.Obj
        [
          ("k", J.Int k);
          ("pvr_ms", J.Float pvr_ms);
          ("gmw_sim_ms", J.Float gmw_ms);
          ("smc_model_s", J.Float smc_s);
          ("zkp_model_s", J.Float zkp_s);
          ("smc_over_pvr", J.Float (smc_s *. 1000.0 /. pvr_ms));
        ])
    [ 2; 4; 8; 16; 32 ]
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- E7: confidentiality / leakage (§2.3, §1) --------------------------------- *)

let e7 () =
  header "E7  leakage audit: PVR vs NetReview vs plain BGP (§2.3)";
  Printf.printf "%4s  %18s  %18s  %22s\n" "k" "PVR excess (B)"
    "PVR excess (Ni)" "NetReview excess (Ni)";
  let rows =
  List.map
    (fun k ->
      let inputs = routes_for k in
      let min_len =
        List.fold_left
          (fun acc (_, r) -> min acc (G.Route.path_length r))
          max_int inputs
      in
      let exported =
        List.find_map
          (fun (_, r) ->
            if G.Route.path_length r = min_len then Some r else None)
          inputs
      in
      let kbits = 8 in
      let openings = List.init kbits (fun i -> (i + 1, min_len <= i + 1)) in
      let b_baseline = P.Leakage.plain_bgp_beneficiary ~exported in
      let b_pvr = P.Leakage.pvr_min_beneficiary ~k:kbits ~openings ~exported in
      let n1, r1 = List.hd inputs in
      let n_baseline = P.Leakage.plain_bgp_provider ~me:n1 ~my_route:r1 in
      let n_pvr =
        P.Leakage.pvr_min_provider ~me:n1 ~my_route:r1
          ~revealed_bit:(Some (G.Route.path_length r1, true))
      in
      let n_netreview = P.Leakage.netreview_neighbor ~inputs in
      let eb = P.Leakage.excess_count ~baseline:b_baseline ~observed:b_pvr
      and en = P.Leakage.excess_count ~baseline:n_baseline ~observed:n_pvr
      and enr =
        P.Leakage.excess_count ~baseline:n_baseline ~observed:n_netreview
      in
      Printf.printf "%4d  %18d  %18d  %22d\n%!" k eb en enr;
      J.Obj
        [
          ("k", J.Int k);
          ("pvr_excess_beneficiary", J.Int eb);
          ("pvr_excess_neighbor", J.Int en);
          ("netreview_excess_neighbor", J.Int enr);
        ])
    [ 2; 4; 8; 16; 32 ]
  in
  (* The §1 inference attack: how well does Gao-style inference do on what
     each scheme reveals? *)
  let rng = C.Drbg.of_int_seed 777 in
  let topo =
    G.Topology.hierarchy rng ~tiers:[ 2; 4; 8; 16 ] ~extra_peering:0.05
  in
  let sim = G.Simulator.create topo in
  List.iter
    (fun origin ->
      G.Simulator.originate sim ~asn:origin
        (G.Prefix.make ~addr:(G.Asn.to_int origin lsl 24) ~len:8))
    (G.Topology.ases topo);
  ignore (G.Simulator.run sim);
  let all_paths =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun p ->
            List.map
              (fun (r : G.Route.t) -> r.G.Route.as_path)
              (G.Simulator.received_routes sim ~asn:a p))
          (G.Rib.prefixes (G.Simulator.rib sim a)))
      (G.Topology.ases topo)
  in
  let best_paths =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun p ->
            Option.map
              (fun (r : G.Route.t) -> r.G.Route.as_path)
              (G.Simulator.best_route sim ~asn:a p))
          (G.Rib.prefixes (G.Simulator.rib sim a)))
      (G.Topology.ases topo)
  in
  let acc paths =
    B.Gao_inference.accuracy ~truth:topo
      (B.Gao_inference.infer ~degree:(G.Topology.degree topo) paths)
  in
  Printf.printf
    "Gao-inference accuracy: chosen-routes only (BGP/PVR view) %.2f | all \
     Adj-RIB-In (NetReview view) %.2f  (%d vs %d paths)\n%!"
    (acc best_paths) (acc all_paths)
    (List.length best_paths)
    (List.length all_paths);
  J.Obj
    [
      ("rows", J.List rows);
      ( "gao_inference",
        J.Obj
          [
            ("accuracy_pvr_view", J.Float (acc best_paths));
            ("accuracy_netreview_view", J.Float (acc all_paths));
            ("paths_pvr_view", J.Int (List.length best_paths));
            ("paths_netreview_view", J.Int (List.length all_paths));
          ] );
    ]

(* ---- E8: detection / evidence / accuracy matrix (§2.3) ------------------------- *)

let e8 () =
  header "E8  fault-injection matrix (§2.3 Detection/Evidence/Accuracy)";
  Printf.printf "%-20s  %9s  %9s  %10s  %-40s\n" "behaviour" "detected"
    "convicted" "evidence#" "first evidence";
  let rows =
    List.map
      (fun beh ->
        let rng = C.Drbg.of_int_seed 800 in
        let r =
          P.Runner.min_round beh rng keyring ~prover:a_as ~beneficiary:b_as
            ~epoch:1 ~prefix:prefix0 ~routes:(routes_for 4)
        in
        let first =
          match r.P.Runner.raised with
          | (_, e) :: _ -> P.Evidence.describe e
          | [] -> "-"
        in
        Printf.printf "%-20s  %9b  %9b  %10d  %-40s\n%!"
          (P.Adversary.to_string beh)
          r.P.Runner.detected r.P.Runner.convicted
          (List.length r.P.Runner.raised)
          first;
        (* Accuracy for the honest prover; Detection and Evidence for every
           cheat. *)
        if beh = P.Adversary.Honest then
          assert (r.P.Runner.raised = [] && not r.P.Runner.convicted)
        else assert (r.P.Runner.detected && r.P.Runner.convicted);
        J.Obj
          [
            ("behaviour", J.String (P.Adversary.to_string beh));
            ("detected", J.Bool r.P.Runner.detected);
            ("convicted", J.Bool r.P.Runner.convicted);
            ("evidence_count", J.Int (List.length r.P.Runner.raised));
            ("first_evidence", J.String first);
          ])
      P.Adversary.all
  in
  (* Gossip-fanout ablation: single-round equivocation detection. *)
  Printf.printf "\ngossip ablation (equivocate, one round): ";
  let ablation =
    List.map
      (fun (label, gossip) ->
        let rng = C.Drbg.of_int_seed 801 in
        let r =
          P.Runner.min_round ~gossip P.Adversary.Equivocate rng keyring
            ~prover:a_as ~beneficiary:b_as ~epoch:1 ~prefix:prefix0
            ~routes:(routes_for 4)
        in
        let caught =
          List.exists
            (fun (_, e) ->
              match e with P.Evidence.Equivocation _ -> true | _ -> false)
            r.P.Runner.raised
        in
        Printf.printf "%s=%b " label caught;
        (label, caught))
      [ ("clique", `Clique); ("ring", `Ring); ("none", `None) ]
  in
  (* Gossip is what exposes a split view: one clique round catches it,
     and without gossip nothing does. *)
  assert (List.assoc "clique" ablation && not (List.assoc "none" ablation));
  print_newline ();
  J.Obj
    [
      ("rows", J.List rows);
      ( "gossip_ablation",
        J.Obj (List.map (fun (label, caught) -> (label, J.Bool caught)) ablation)
      );
    ]

(* ---- E9: continuous verification throughput -------------------------------------- *)

let e9 () =
  header "E9  continuous verification throughput (Engine, per-vertex cost)";
  (* A star around A: 8 providers each originating several prefixes.  One
     engine epoch with the caches off verifies every (A, prefix) vertex;
     each vertex's beneficiary is the lowest-ASN neighbour of A that is not
     its provider. *)
  let module E = Pvr_engine.Engine in
  let k = 8 in
  let star_providers = List.filteri (fun i _ -> i < k) providers in
  let topo =
    G.Topology.star ~center:a_as ~leaves:(b_as :: star_providers)
      ~rel:G.Relationship.Customer
  in
  let sim = G.Simulator.create topo in
  G.Simulator.set_gao_rexford sim false;
  let prefixes_per_provider = 4 in
  List.iteri
    (fun i n ->
      for j = 0 to prefixes_per_provider - 1 do
        G.Simulator.originate sim ~asn:n
          (G.Prefix.make ~addr:(((i + 1) lsl 24) lor (j lsl 16)) ~len:16)
      done)
    star_providers;
  ignore (G.Simulator.run sim);
  let eng =
    E.create ~cache:false ~max_path_len:16 (C.Drbg.of_int_seed 900) keyring
      ~topology:topo ~sim ()
  in
  let t0 = Unix.gettimeofday () in
  let r = E.epoch eng in
  let dt = Unix.gettimeofday () -. t0 in
  let n = r.E.ep_dirty in
  let ms_per_vertex = dt *. 1000.0 /. float_of_int (max 1 n) in
  Printf.printf
    "verified %d vertices (k=%d providers) in %.2fs -> %.1f ms/vertex; \
     false positives: %d\n%!"
    n k dt ms_per_vertex r.E.ep_detected;
  J.Obj
    [
      ("vertices", J.Int n);
      ("k", J.Int k);
      ("seconds", J.Float dt);
      ("ms_per_vertex", J.Float ms_per_vertex);
      ("false_positives", J.Int r.E.ep_detected);
    ]

(* ---- E10: faulty-network rounds -------------------------------------------------- *)

let e10 () =
  header "E10  faulty-network rounds (Pvr_net fault injection + ARQ)";
  let profiles =
    [
      ("perfect", P.Runner.perfect_faults);
      ( "drop15",
        {
          P.Runner.perfect_faults with
          P.Runner.fp_policy = Pvr_net.faulty ~drop:0.15 ();
        } );
      ( "chaos",
        {
          P.Runner.perfect_faults with
          P.Runner.fp_policy =
            Pvr_net.faulty ~drop:0.25 ~duplicate:0.10 ~delay_max:3
              ~reorder:true ();
        } );
    ]
  in
  Printf.printf "%-8s  %-18s  %8s  %9s  %8s  %7s  %8s\n" "faults" "behaviour"
    "detected" "convicted" "required" "retries" "timeouts";
  let routes = routes_for 4 in
  let rows =
    List.concat_map
      (fun (label, faults) ->
        List.map
          (fun beh ->
            let rng = C.Drbg.of_int_seed 1000 in
            let nr =
              P.Runner.min_round_faulty ~faults beh rng keyring ~prover:a_as
                ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes
            in
            let r = nr.P.Runner.base in
            let required =
              beh <> P.Adversary.Honest
              && P.Runner.detection_expected beh ~beneficiary:b_as ~routes nr
            in
            Printf.printf "%-8s  %-18s  %8b  %9b  %8b  %7d  %8d\n%!" label
              (P.Adversary.to_string beh)
              r.P.Runner.detected r.P.Runner.convicted required
              nr.P.Runner.net_retries nr.P.Runner.net_timeouts;
            J.Obj
              [
                ("faults", J.String label);
                ("behaviour", J.String (P.Adversary.to_string beh));
                ("detected", J.Bool r.P.Runner.detected);
                ("convicted", J.Bool r.P.Runner.convicted);
                ("required", J.Bool required);
                ("messages", J.Int r.P.Runner.messages);
                ("net_retries", J.Int nr.P.Runner.net_retries);
                ("net_timeouts", J.Int nr.P.Runner.net_timeouts);
                ("net_drops", J.Int nr.P.Runner.net_drops);
                ("gossip_drops", J.Int nr.P.Runner.gossip_drops);
                ("ticks", J.Int nr.P.Runner.ticks);
              ])
          P.Adversary.all)
      profiles
  in
  J.Obj [ ("rows", J.List rows) ]

(* ---- engine worlds: E11-E17 run what `pvr engine` runs --------------------------- *)

module E = Pvr_engine.Engine
module W = Pvr_serve.Workload

(* The engine experiments build their worlds and drive their epochs through
   [Workload], the code `pvr engine`, `pvr crashsoak` and `pvr serve`
   share.  Each keeps a local memo of topologies and keyrings and primes it
   before anything is timed or counted, so key generation stays outside
   every measurement. *)
let world_memo () : W.cache =
  let tbl = Hashtbl.create 4 in
  fun key generate ->
    match Hashtbl.find_opt tbl key with
    | Some tk -> tk
    | None ->
        let tk = generate () in
        Hashtbl.add tbl key tk;
        tk

let prime memo p = W.build_world ~quiet:true ~cache:memo p

(* One quiet run of [p] over a fresh world (journal fsync off: the store
   experiments measure serialization and framing, not the disk); returns
   the final digest. *)
let run_world ?memo ?on_report ?checkpoint_dir p =
  match
    W.engine_core ~quiet:true ?on_report ?checkpoint_dir ~fsync:false
      (W.build_world ~quiet:true ?cache:memo p)
      p
  with
  | Ok (digest, _) -> digest
  | Error e -> failwith e

let bench_dir name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pvr-bench-%s-%d" name (Unix.getpid ()))

(* E11 and E12: a 10-AS hierarchy under 20% turnover with anycast churn. *)
let hierarchy_params seed =
  {
    W.defaults with
    W.p_seed = seed;
    p_tiers = "1,3,6";
    p_peering = 0.2;
    p_epochs = 6;
    p_origins = 3;
    p_anycast = 2;
  }

(* ---- E11: continuous engine (incremental caching, multicore) --------------------- *)

let e11 () =
  header "E11  continuous engine: incremental caching & multicore scheduling";
  let p = hierarchy_params 2026 in
  let memo = world_memo () in
  let ases = G.Topology.size (prime memo p).W.w_topo in
  let epochs = p.p_epochs and turnover = p.p_turnover in
  (* Every run re-derives its DRBGs from the same seed, so all runs see the
     same topology, keys, churn schedule and engine secret; the digest
     cross-checks assert exactly that. *)
  let run ~jobs ~cache () =
    let dirty = ref 0 and vertices = ref 0 in
    let digest =
      run_world ~memo
        ~on_report:(fun r ->
          dirty := !dirty + r.E.ep_dirty;
          vertices := !vertices + r.E.ep_vertices)
        { p with p_jobs = jobs; p_cache = cache }
    in
    (digest, !dirty, !vertices)
  in
  (* Op counts: cache on vs off, exact counter deltas on a single domain. *)
  let (digest_on, rounds_on, verts), d_on = counted (run ~jobs:1 ~cache:true) in
  let (digest_off, rounds_off, _), d_off =
    counted (run ~jobs:1 ~cache:false)
  in
  assert (digest_on = digest_off);
  let ops label d rounds =
    Printf.printf
      "%-9s  rounds=%-4d  sha256=%-6d  blocks=%-6d  rsa_sign=%-4d \
       (%.2f/round)  rsa_verify=%-4d  commit_hits=%-5d  sign_hits=%d\n%!"
      label rounds
      (delta d "crypto.sha256.ops")
      (delta d "crypto.sha256.blocks")
      (delta d "crypto.rsa.sign.ops")
      (float_of_int (delta d "crypto.rsa.sign.ops")
      /. float_of_int (max 1 rounds))
      (delta d "crypto.rsa.verify.ops")
      (delta d "crypto.commitment.cache.hits")
      (delta d "engine.cache.sign.hits")
  in
  Printf.printf "epochs=%d vertices(total)=%d turnover=%.2f digest=%s\n" epochs
    verts turnover
    (String.sub digest_on 0 16);
  ops "cache-on" d_on rounds_on;
  ops "cache-off" d_off rounds_off;
  (* The acceptance claim: under partial turnover the incremental engine
     performs strictly less hashing and signing than full recomputation. *)
  assert (delta d_on "crypto.sha256.ops" < delta d_off "crypto.sha256.ops");
  assert (delta d_on "crypto.rsa.sign.ops" <= delta d_off "crypto.rsa.sign.ops");
  let cache_json d rounds =
    J.Obj
      [
        ("rounds", J.Int rounds);
        ("ops", crypto_ops d);
        ("commitment_cache_hits", J.Int (delta d "crypto.commitment.cache.hits"));
        ( "commitment_cache_misses",
          J.Int (delta d "crypto.commitment.cache.misses") );
        ("sign_cache_hits", J.Int (delta d "engine.cache.sign.hits"));
        ("sign_cache_misses", J.Int (delta d "engine.cache.sign.misses"));
        ("vertices_skipped", J.Int (delta d "engine.vertices.skipped"));
      ]
  in
  (* Throughput vs. worker count.  Speedup scales with the cores actually
     available — recorded below so single-core CI numbers read as such. *)
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores=%d\n%!" cores;
  Printf.printf "%4s  %12s  %12s  %12s  %8s\n" "jobs" "run ms" "epochs/s"
    "rounds/s" "speedup";
  let ms1 = ref nan in
  let throughput =
    List.map
      (fun jobs ->
        let digest, rounds, _ = run ~jobs ~cache:true () in
        assert (digest = digest_on);
        let ms = time_ms (fun () -> ignore (run ~jobs ~cache:true ())) in
        if jobs = 1 then ms1 := ms;
        let speedup = !ms1 /. ms in
        Printf.printf "%4d  %12.1f  %12.2f  %12.1f  %8.2f\n%!" jobs ms
          (float_of_int epochs *. 1000.0 /. ms)
          (float_of_int rounds *. 1000.0 /. ms)
          speedup;
        J.Obj
          [
            ("jobs", J.Int jobs);
            ("ms_per_run", J.Float ms);
            ("epochs_per_s", J.Float (float_of_int epochs *. 1000.0 /. ms));
            ("rounds_per_s", J.Float (float_of_int rounds *. 1000.0 /. ms));
            ("speedup_vs_jobs1", J.Float speedup);
            ("digest_matches_jobs1", J.Bool (digest = digest_on));
          ])
      [ 1; 2; 4 ]
  in
  J.Obj
    [
      ("ases", J.Int ases);
      ("epochs", J.Int epochs);
      ("turnover", J.Float turnover);
      ("salt_every", J.Int p.p_salt_every);
      ("cores", J.Int cores);
      ("digest", J.String digest_on);
      ("cache_on", cache_json d_on rounds_on);
      ("cache_off", cache_json d_off rounds_off);
      ("throughput", J.List throughput);
    ]

(* ---- E12: durable store: journal overhead & crash-recovery equivalence ----------- *)

let e12 () =
  header "E12  durable store: journal overhead";
  let p = hierarchy_params 2027 in
  let memo = world_memo () in
  let ases = G.Topology.size (prime memo p).W.w_topo in
  let epochs = p.p_epochs in
  let dir = bench_dir "e12" in
  (* One engine run, journaling every epoch into [dir] when [journal]; the
     digest must agree with a journal-free run. *)
  let run ~journal () =
    run_world ~memo ?checkpoint_dir:(if journal then Some dir else None) p
  in
  let baseline = run ~journal:false () in
  Printf.printf "%-12s  %10s  %10s  %12s  %9s\n" "mode" "run ms" "epochs/s"
    "journal B" "digest=";
  let mode name ~journal =
    let digest, d = counted (run ~journal) in
    let ms = time_ms (fun () -> ignore (run ~journal ())) in
    let journal_bytes = delta d "store.journal.bytes" in
    Printf.printf "%-12s  %10.1f  %10.2f  %12d  %9b\n%!" name ms
      (float_of_int epochs *. 1000.0 /. ms)
      journal_bytes (digest = baseline);
    assert (digest = baseline);
    J.Obj
      [
        ("mode", J.String name);
        ("ms_per_run", J.Float ms);
        ("epochs_per_s", J.Float (float_of_int epochs *. 1000.0 /. ms));
        ("journal_bytes", J.Int journal_bytes);
        ("journal_appends", J.Int (delta d "store.journal.appends"));
        ("digest_matches_off", J.Bool (digest = baseline));
      ]
  in
  let rows =
    (* bind in sequence: list-literal element order of evaluation is
       unspecified, and the table should print top-to-bottom *)
    let off = mode "off" ~journal:false in
    let journal = mode "journal" ~journal:true in
    [ off; journal ]
  in
  Pvr_store.Store.remove ~dir;
  J.Obj
    [
      ("ases", J.Int ases);
      ("epochs", J.Int epochs);
      ("turnover", J.Float p.p_turnover);
      ("digest", J.String baseline);
      ("modes", J.List rows);
    ]

(* ---- E13: internet scale: generated topology ------------------------------------ *)

(* E13 and E16: a generated power-law internet, churned at its four
   highest ASNs — late arrivals in the preferential-attachment order, hence
   stubs near the edge, as in the paper's promise-to-beneficiary scenario. *)
let internet_params seed ~ases ~epochs =
  {
    W.defaults with
    W.p_seed = seed;
    p_ases = ases;
    p_epochs = epochs;
    p_peering = 0.05;
  }

let e13 () =
  header "E13  internet scale: generated topology";
  let base_p = internet_params 2028 ~ases:1000 ~epochs:4 in
  let sizes = [ 100; 300; 1000 ] in
  let memo = world_memo () in
  List.iter
    (fun ases -> ignore (prime memo { base_p with p_ases = ases }))
    sizes;
  (* Every run re-derives topology, churn and engine secret from the same
     seed: same [ases] means the same internet, so digests are comparable
     across jobs/cache settings. *)
  let run ?(epochs = base_p.p_epochs) ?(turnover = base_p.p_turnover) ?(mem = 0)
      ?on_report ~ases ~jobs ~cache () =
    let dirty = ref 0 and msgs = ref 0 in
    let d =
      run_world ~memo
        ~on_report:(fun r ->
          dirty := !dirty + r.E.ep_dirty;
          msgs := !msgs + r.E.ep_msgs;
          Option.iter (fun f -> f r) on_report)
        {
          base_p with
          p_ases = ases;
          p_epochs = epochs;
          p_turnover = turnover;
          p_jobs = jobs;
          p_cache = cache;
          p_mem_ceiling = mem;
        }
    in
    (d, !dirty, !msgs)
  in
  (* Scaling curve: ASes x jobs at fixed turnover (single timed run per
     cell; at this scale a run is seconds, not microseconds). *)
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores=%d\n%!" cores;
  Printf.printf "%6s %5s  %10s  %10s  %8s  %8s\n" "ases" "jobs" "run ms"
    "ms/epoch" "dirty" "msgs";
  let epochs = base_p.p_epochs in
  (* Per-domain utilization as published by the pool after each round:
     cumulative busy/idle microseconds and task counts per resident worker.
     Contention shows up here as busy-time skew or idle-time blowup even
     when single-core wall-clock cannot show a speedup. *)
  let pool_domain_gauges () =
    let prefix = "engine.pool.domain." in
    let plen = String.length prefix in
    let gs =
      List.filter
        (fun (name, _) ->
          String.length name >= plen && String.sub name 0 plen = prefix)
        (Obs.Snapshot.gauges (Obs.Snapshot.capture ()))
    in
    J.Obj (List.map (fun (n, v) -> (n, J.Int v)) gs)
  in
  let scaling =
    List.concat_map
      (fun ases ->
        List.map
          (fun jobs ->
            let t0 = Unix.gettimeofday () in
            let _, dirty, msgs = run ~ases ~jobs ~cache:true () in
            let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            Printf.printf "%6d %5d  %10.1f  %10.1f  %8d  %8d\n%!" ases jobs
              ms
              (ms /. float_of_int epochs)
              dirty msgs;
            J.Obj
              ([
                 ("ases", J.Int ases);
                 ("jobs", J.Int jobs);
                 ("ms_per_run", J.Float ms);
                 ("ms_per_epoch", J.Float (ms /. float_of_int epochs));
                 ("dirty", J.Int dirty);
                 ("msgs", J.Int msgs);
               ]
              @
              if jobs > 1 then [ ("pool_domains", pool_domain_gauges ()) ]
              else []))
          [ 1; 2 ])
      sizes
  in
  (* Turnover sweep at a fixed mid-size internet. *)
  Printf.printf "%8s  %10s  %8s  %8s\n" "turnover" "run ms" "dirty" "msgs";
  let turnover_rows =
    List.map
      (fun turnover ->
        let t0 = Unix.gettimeofday () in
        let _, dirty, msgs =
          run ~turnover ~ases:300 ~jobs:1 ~cache:true ()
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        Printf.printf "%8.2f  %10.1f  %8d  %8d\n%!" turnover ms dirty msgs;
        J.Obj
          [
            ("turnover", J.Float turnover);
            ("ms_per_run", J.Float ms);
            ("dirty", J.Int dirty);
            ("msgs", J.Int msgs);
          ])
      [ 0.05; 0.2; 0.5 ]
  in
  (* Determinism matrix at 1000 ASes: the digest must be byte-identical
     across jobs, the memo cache and a memory ceiling. *)
  let base, _, _ = run ~ases:1000 ~jobs:1 ~cache:true () in
  let matrix =
    [
      ("jobs=2", fun () -> run ~ases:1000 ~jobs:2 ~cache:true ());
      ("jobs=4", fun () -> run ~ases:1000 ~jobs:4 ~cache:true ());
      ("jobs=1 cache=off", fun () -> run ~ases:1000 ~jobs:1 ~cache:false ());
      ( "jobs=2 mem-ceiling",
        (* Bounded memory at scale: a tight governor ceiling with spilling
           must not perturb the digest (E16 measures the footprint). *)
        fun () -> run ~mem:200_000 ~ases:1000 ~jobs:2 ~cache:true () );
    ]
  in
  let determinism =
    List.map
      (fun (label, f) ->
        let d, _, _ = f () in
        Printf.printf "digest %-18s %s\n%!" label
          (if d = base then "= baseline" else "MISMATCH");
        assert (d = base);
        J.Obj [ ("variant", J.String label); ("digest_matches", J.Bool true) ])
      matrix
  in
  (* Allocated words per steady-state epoch (§3.8's quiet regime: zero
     turnover after the seeding epoch, so every epoch is collect + classify
     + digest with no fresh RSA). *)
  let allocated_words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let quiet_words =
    let words = ref [] in
    let before = ref 0.0 in
    let (_ : string * int * int) =
      run ~epochs:6 ~turnover:0.0 ~ases:1000 ~jobs:1 ~cache:true
        ~on_report:(fun r ->
          (* Epoch 1 seeds the table (RSA everywhere); epochs 2.. are the
             steady state we measure. *)
          let now = allocated_words () in
          if r.E.ep_epoch >= 2 then words := (now -. !before) :: !words;
          before := now)
        ()
    in
    List.fold_left ( +. ) 0.0 !words /. float_of_int (List.length !words)
  in
  Printf.printf "quiet-epoch allocation (1000 ASes): %.0f words/epoch\n%!"
    quiet_words;
  J.Obj
    [
      ("max_ases", J.Int (List.fold_left max 0 sizes));
      ("epochs", J.Int epochs);
      ("cores", J.Int cores);
      ("scaling", J.List scaling);
      ("turnover_sweep", J.List turnover_rows);
      ("digest", J.String base);
      ("determinism", J.List determinism);
      ("allocated_words_per_quiet_epoch", J.Float quiet_words);
    ]

(* ---- E16: bounded memory: governor spilling to the store ------------------------- *)

(* The memory-governor acceptance claim, measured: an unbounded run's peak
   major heap sets the budget, then the same seeded run under a ceiling of
   a quarter of that — spilling cold vertex state into a real WAL store —
   must produce the byte-identical digest.  The [engine.mem.*] counters of
   the bounded run land in BENCH_pvr.json so regressions in shedding
   behaviour are visible across commits. *)
let e16 () =
  header "E16  bounded memory: governor, spill-to-store, digest parity";
  let p = { (internet_params 2040 ~ases:300 ~epochs:6) with W.p_ppo = 4 } in
  let memo = world_memo () in
  ignore (prime memo p);
  (* One seeded engine run; [ceiling] > 0 installs the governor with a
     store-backed pager.  Returns (digest, peak major-heap words above the
     pre-run compacted floor). *)
  let run ?(ceiling = 0) () =
    Gc.compact ();
    let floor_words = (Gc.quick_stat ()).Gc.heap_words in
    let peak = ref 0 in
    let d =
      run_world ~memo
        ~on_report:(fun _ ->
          peak := max !peak ((Gc.quick_stat ()).Gc.heap_words - floor_words))
        { p with p_mem_ceiling = ceiling }
    in
    (d, !peak)
  in
  let t0 = Unix.gettimeofday () in
  let base_digest, unbounded_peak = run () in
  let unbounded_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let ceiling = max 1 (unbounded_peak / 4) in
  Printf.printf
    "unbounded: peak %d heap words (%.1f ms); ceiling for bounded run: %d\n%!"
    unbounded_peak unbounded_ms ceiling;
  let before = Obs.Snapshot.capture () in
  let t0 = Unix.gettimeofday () in
  let bounded_digest, bounded_peak = run ~ceiling () in
  let bounded_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  let mem name = Obs.Snapshot.counter_value d ("engine.mem." ^ name) in
  Printf.printf
    "bounded:   peak %d heap words (%.1f ms) — spills=%d unspills=%d \
     page_reads=%d\n%!"
    bounded_peak bounded_ms (mem "spills") (mem "unspills") (mem "page_reads");
  Printf.printf "digest %s under a 4x-tighter heap: %s\n%!"
    (if bounded_digest = base_digest then "identical" else "MISMATCH")
    base_digest;
  (* The acceptance claims: shedding engaged, and it cost nothing in
     correctness — the digest is byte-identical under the quartered
     ceiling. *)
  assert (bounded_digest = base_digest);
  assert (mem "spills" > 0);
  J.Obj
    [
      ("ases", J.Int p.p_ases);
      ("epochs", J.Int p.p_epochs);
      ("digest", J.String base_digest);
      ("digest_matches", J.Bool (bounded_digest = base_digest));
      ( "unbounded",
        J.Obj
          [
            ("peak_heap_words", J.Int unbounded_peak);
            ("ms_per_run", J.Float unbounded_ms);
          ] );
      ( "bounded",
        J.Obj
          [
            ("mem_ceiling_words", J.Int ceiling);
            ("peak_heap_words", J.Int bounded_peak);
            ("ms_per_run", J.Float bounded_ms);
            ("spills", J.Int (mem "spills"));
            ("unspills", J.Int (mem "unspills"));
            ("page_reads", J.Int (mem "page_reads"));
            ("page_read_failures", J.Int (mem "page_read_failures"));
          ] );
    ]

(* ---- E15: audit queries over the evidence plane --------------------------------- *)

let e15 () =
  header "E15  pvr_query: indexed audit queries vs. full journal scans";
  let module Idx = Pvr_query.Evidence_index in
  let module Lang = Pvr_query.Lang in
  let module Exec = Pvr_query.Exec in
  (* A stonewalling timing-probe run: probed cheats are detected but never
     convicted, so the evidence plane has violations to query while the run
     itself stays clean. *)
  let p =
    {
      W.defaults with
      W.p_seed = 2033;
      p_tiers = "1,3,8";
      p_peering = 0.2;
      p_epochs = 24;
      p_turnover = 0.25;
      p_salt_every = 4;
      p_anycast = 4;
      p_ppo = 4;
      p_strategy = P.Adversary.Timing_probe { period = 3 };
    }
  in
  let memo = world_memo () in
  let ases = G.Topology.ases (prime memo p).W.w_topo in
  let epochs = p.p_epochs in
  let dir = bench_dir "e15" in
  ignore (run_world ~memo ~checkpoint_dir:dir p : string);
  let build () =
    counted (fun () ->
        match Idx.build ~quiet:true ~dir () with
        | Ok idx -> idx
        | Error e -> failwith e)
  in
  let idx, bd = build () in
  let build_ms = time_ms (fun () -> ignore (build ())) in
  (* A second, independent build: every query below must render the same
     bytes against both, the determinism the crash-recovery smoke relies
     on. *)
  let idx2, _ = build () in
  let n = Idx.row_count idx in
  let frames_scanned = delta bd "query.scan.frames" in
  Printf.printf
    "[e15] %d rows over %d epochs; index build %.2f ms (%d frames decoded)\n%!"
    n epochs build_ms frames_scanned;
  assert (n > 0);
  (* Query a leaf prover — the smallest non-empty posting list — so the
     posting-list plan shows its best case against the O(n) scan. *)
  let probe =
    List.fold_left
      (fun best a ->
        let c = Idx.est_prover idx a in
        match best with
        | _ when c = 0 -> best
        | Some (_, bc) when bc <= c -> best
        | _ -> Some (G.Asn.to_int a, c))
      None ases
    |> Option.get |> fst
  in
  let queries =
    [
      ("prover-posting", Printf.sprintf "rows where prover = AS%d" probe);
      ( "epoch-range",
        "violations where epoch > 20 order by epoch asc limit 20" );
      ( "prefix-subtree",
        "violations where prefix in 10.0.0.0/8 and epoch > 20 order by epoch \
         limit 20" );
      ("full-scan", "violations where detected order by leaked desc");
    ]
  in
  (* Brute-force reference: decode-order walk of every row with the whole
     predicate as a residual — exactly what the Scan access path pays. *)
  let brute q =
    let matched =
      List.filter (Lang.admits q) (List.init n (Idx.row idx))
    in
    let ordered =
      match q.Lang.q_order with
      | None -> matched
      | Some (k, asc) ->
          List.stable_sort
            (fun a b ->
              let c = Exec.key_compare k a b in
              if asc then c else -c)
            matched
    in
    match q.Lang.q_limit with
    | None -> ordered
    | Some m -> List.filteri (fun i _ -> i < m) ordered
  in
  let court = P.Leakage.court in
  Printf.printf "%-16s  %-18s %5s %6s  %9s  %9s  %8s  %6s\n" "query" "plan"
    "rows" "cand" "index ms" "scan ms" "speedup" "hit%";
  let jrows =
    List.map
      (fun (name, text) ->
        let q =
          match Lang.parse text with
          | Ok q -> q
          | Error e -> failwith (Lang.render_error ~query:text e)
        in
        let res, d = counted (fun () -> Exec.run idx ~viewer:court q) in
        let plan = res.Exec.qr_plan in
        (* The planner may change cost, never answers. *)
        assert (res.Exec.qr_rows = brute q);
        let res2 = Exec.run idx2 ~viewer:court q in
        assert (
          Exec.render_json ~query:q ~viewer:court res
          = Exec.render_json ~query:q ~viewer:court res2);
        let indexed_ms =
          time_ms (fun () -> ignore (Exec.run idx ~viewer:court q))
        in
        let scan_ms = time_ms (fun () -> ignore (brute q)) in
        let hits = delta d "query.index.hits" in
        let rows = List.length res.Exec.qr_rows in
        let hit_ratio = float_of_int hits /. float_of_int (max 1 n) in
        Printf.printf "%-16s  %-18s %5d %6d  %9.3f  %9.3f  %7.1fx  %6.3f\n%!"
          name
          (Exec.access_to_string plan.Exec.pl_access)
          rows plan.Exec.pl_cost indexed_ms scan_ms (scan_ms /. indexed_ms)
          hit_ratio;
        (* §acceptance: the selective posting-list plan must beat brute
           scanning outright; the other indexed plans are reported.  It is
           checked in rows, not milliseconds: the plan reads the prover's
           posting list, and that list is shorter than the [n] rows a scan
           reads.  Both timings (about 0.01 ms each) are only printed, as
           host noise can order them either way. *)
        if name = "prover-posting" then begin
          assert (
            match plan.Exec.pl_access with
            | Exec.Prover_idx _ -> true
            | _ -> false);
          assert (plan.Exec.pl_cost < n)
        end;
        J.Obj
          [
            ("name", J.String name);
            ("query", J.String (Lang.to_string q));
            ("plan", J.String (Exec.access_to_string plan.Exec.pl_access));
            ("candidates", J.Int plan.Exec.pl_cost);
            ("rows", J.Int rows);
            ("indexed_ms", J.Float indexed_ms);
            ("scan_ms", J.Float scan_ms);
            ("speedup", J.Float (scan_ms /. indexed_ms));
            ("index_hits", J.Int hits);
            ("index_hit_ratio", J.Float hit_ratio);
            ( "rows_per_sec",
              J.Float (float_of_int rows *. 1000.0 /. indexed_ms) );
          ])
      queries
  in
  Pvr_store.Store.remove ~dir;
  J.Obj
    [
      ("ases", J.Int (List.length ases));
      ("epochs", J.Int epochs);
      ("rows", J.Int n);
      ("build_ms", J.Float build_ms);
      ("build_frames_decoded", J.Int frames_scanned);
      ("queries", J.List jrows);
    ]

(* ---- E17: serving traffic: concurrent sessions against one daemon --------------- *)

let e17 () =
  header "E17  serve: concurrent verification sessions over one daemon";
  let module S = Pvr_serve.Server in
  let module Cl = Pvr_serve.Client in
  let module Pr = Pvr_serve.Protocol in
  let sessions = 100 in
  let distinct_seeds = 8 in
  let epochs = 3 in
  let params seed =
    {
      W.defaults with
      W.p_seed = seed;
      p_tiers = "1,2";
      p_origins = 2;
      p_epochs = epochs;
    }
  in
  (* Batch oracle: one engine run per distinct seed; every streamed
     session must land byte-identically on one of these digests. *)
  let batch =
    Array.init distinct_seeds (fun i -> run_world (params (7000 + i)))
  in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pvr-bench-e17-%d.sock" (Unix.getpid ()))
  in
  let workers = 4 and queue_cap = 16 in
  let srv =
    S.start { (S.default_config (S.Unix_sock path)) with workers; queue_cap }
  in
  (* A client burst can outrun the accept loop's backlog: retry briefly. *)
  let connect () =
    let rec go tries =
      match Cl.connect (S.Unix_sock path) with
      | c -> c
      | exception Unix.Unix_error _ when tries < 100 ->
          Unix.sleepf 0.02;
          go (tries + 1)
    in
    go 0
  in
  let mu = Mutex.create () in
  let latencies = ref [] in
  (* seconds between successive verdict frames *)
  let updates = ref 0 and verdicts = ref 0 and busy_retries = ref 0 in
  let mismatches = ref 0 in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let peak_heap = ref heap0 and peak_queue = ref 0 in
  let stop_mon = ref false in
  let monitor =
    Thread.create
      (fun () ->
        while not !stop_mon do
          let q = Obs.gauge_read (Obs.gauge "serve.queue.depth") in
          if q > !peak_queue then peak_queue := q;
          let h = (Gc.quick_stat ()).Gc.heap_words in
          if h > !peak_heap then peak_heap := h;
          Unix.sleepf 0.01
        done)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init sessions (fun i ->
        Thread.create
          (fun () ->
            let seed_ix = i mod distinct_seeds in
            let c = connect () in
            Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
            match Cl.open_session c (params (7000 + seed_ix)) with
            | Error e -> failwith ("e17 open_session: " ^ e)
            | Ok id ->
                (* Busy is the daemon's explicit backpressure: back off and
                   retry until admitted (the whole point of the bound is
                   that the caller owns the retry policy). *)
                let rec go tries =
                  let last = ref (Unix.gettimeofday ()) in
                  match
                    Cl.run_epochs
                      ~on_verdict:(fun v ->
                        let now = Unix.gettimeofday () in
                        Mutex.lock mu;
                        latencies := (now -. !last) :: !latencies;
                        updates := !updates + v.Pr.v_changes;
                        incr verdicts;
                        Mutex.unlock mu;
                        last := now)
                      c id
                  with
                  | Ok (d, _) ->
                      if d <> batch.(seed_ix) then begin
                        Mutex.lock mu;
                        incr mismatches;
                        Mutex.unlock mu
                      end
                  | Error "busy" when tries < 600 ->
                      Mutex.lock mu;
                      incr busy_retries;
                      Mutex.unlock mu;
                      Unix.sleepf 0.05;
                      go (tries + 1)
                  | Error e -> failwith ("e17 run_epochs: " ^ e)
                in
                go 0)
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  stop_mon := true;
  Thread.join monitor;
  let st = S.stats srv in
  S.stop srv;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lats = List.sort compare !latencies in
  let n_lat = List.length lats in
  let pct p =
    if n_lat = 0 then 0.0
    else List.nth lats (min (n_lat - 1) (int_of_float (p *. float_of_int n_lat)))
  in
  let p50 = pct 0.50 *. 1000.0 and p95 = pct 0.95 *. 1000.0 in
  assert (!mismatches = 0);
  assert (!verdicts = sessions * epochs);
  assert (!peak_queue <= queue_cap);
  Printf.printf
    "%d sessions x %d epochs in %.1fs: %.1f sessions/s, %.1f updates/s, \
     verdict p50=%.1fms p95=%.1fms, busy retries=%d, peak queue=%d (cap %d), \
     peak heap=%.1f MB, world cache hits=%d misses=%d\n%!"
    sessions epochs wall
    (float_of_int sessions /. wall)
    (float_of_int !updates /. wall)
    p50 p95 !busy_retries !peak_queue queue_cap
    (float_of_int (!peak_heap * 8) /. 1e6)
    st.Pr.st_world_hits st.Pr.st_world_misses;
  J.Obj
    [
      ("sessions", J.Int sessions);
      ("epochs_per_session", J.Int epochs);
      ("distinct_seeds", J.Int distinct_seeds);
      ("workers", J.Int workers);
      ("queue_cap", J.Int queue_cap);
      ("wall_s", J.Float wall);
      ("sessions_per_s", J.Float (float_of_int sessions /. wall));
      ("updates_per_s", J.Float (float_of_int !updates /. wall));
      ("verdicts", J.Int !verdicts);
      ("verdict_p50_ms", J.Float p50);
      ("verdict_p95_ms", J.Float p95);
      ("busy_retries", J.Int !busy_retries);
      ("peak_queue_depth", J.Int !peak_queue);
      ("peak_heap_mb", J.Float (float_of_int (!peak_heap * 8) /. 1e6));
      ("digest_matches_batch", J.Bool (!mismatches = 0));
      ("world_cache_hits", J.Int st.Pr.st_world_hits);
      ("world_cache_misses", J.Int st.Pr.st_world_misses);
    ]

(* ---- Bechamel: one Test.make per experiment ------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let key = P.Keyring.private_key keyring a_as in
  let graph_promise = R.Promise.Shortest_from (List.map fst (routes_for 4)) in
  let smc_circuit = B.Circuit.minimum ~bits:8 ~k:4 in
  let smc_inputs = Array.init 32 (fun i -> i mod 2 = 0) in
  [
    Test.make ~name:"e1/min-round-k8"
      (Staged.stage (fun () -> ignore (min_round_once 8)));
    Test.make ~name:"e3/graph-round-k4"
      (Staged.stage (fun () ->
           ignore
             (P.Runner.graph_round (C.Drbg.of_int_seed 2) keyring ~prover:a_as
                ~beneficiary:b_as ~epoch:1 ~prefix:prefix0
                ~promise:graph_promise ~routes:(routes_for 4))));
    Test.make ~name:"e4/rsa1024-sign"
      (Staged.stage (fun () -> ignore (C.Rsa.sign key "benchmark payload")));
    Test.make ~name:"e4/sha256-64B"
      (Staged.stage (fun () -> ignore (C.Sha256.digest (String.make 64 'x'))));
    Test.make ~name:"e5/mht-batch-64"
      (Staged.stage
         (let payloads = burst_announces (List.map snd (routes_for 64)) in
          fun () -> ignore (sign_verify_batched payloads)));
    Test.make ~name:"e6/gmw-min-k4"
      (Staged.stage (fun () ->
           ignore
             (B.Gmw.run (C.Drbg.of_int_seed 3) ~parties:5 smc_circuit
                ~inputs:smc_inputs)));
    Test.make ~name:"e7/leakage-audit"
      (Staged.stage (fun () ->
           let inputs = routes_for 8 in
           let n1, r1 = List.hd inputs in
           ignore
             (P.Leakage.excess_count
                ~baseline:(P.Leakage.plain_bgp_provider ~me:n1 ~my_route:r1)
                ~observed:(P.Leakage.netreview_neighbor ~inputs))));
    Test.make ~name:"e8/judge-nonminimal"
      (Staged.stage
         (let rng = C.Drbg.of_int_seed 4 in
          let r =
            P.Runner.min_round P.Adversary.Export_nonminimal rng keyring
              ~prover:a_as ~beneficiary:b_as ~epoch:1 ~prefix:prefix0
              ~routes:(routes_for 4)
          in
          match r.P.Runner.raised with
          | (_, e) :: _ -> fun () -> ignore (P.Judge.evaluate_offline keyring e)
          | [] -> fun () -> ()));
  ]

let run_bechamel () =
  let open Bechamel in
  header "Bechamel OLS estimates (one per experiment)";
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"pvr" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name res acc -> (name, res) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-28s  %14s  %8s\n" "benchmark" "ns/run" "r^2";
  let jrows =
    List.map
      (fun (name, res) ->
        let est =
          match Analyze.OLS.estimates res with Some (e :: _) -> e | _ -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square res) ~default:nan in
        Printf.printf "%-28s  %14.0f  %8.4f\n%!" name est r2;
        J.Obj
          [
            ("name", J.String name);
            ("ns_per_run", J.Float est);
            ("r_square", J.Float r2);
          ])
      rows
  in
  J.Obj [ ("rows", J.List jrows) ]

let bench_json_path = "BENCH_pvr.json"

let () =
  Obs.set_enabled true;
  Obs.reset_all ();
  let experiments =
    [
      ("e1_min_operator", e1);
      ("e2_existential", e2);
      ("e3_graph_protocol", e3);
      ("e4_primitives", e4);
      ("e5_batching", e5);
      ("e5b_bitvec_ablation", e5b);
      ("e6_strawman_comparison", e6);
      ("e7_leakage", e7);
      ("e8_fault_matrix", e8);
      ("e9_online_throughput", e9);
      ("e10_faulty_network", e10);
      ("e11_engine", e11);
      ("e12_durable_store", e12);
      ("e13_scale", e13);
      ("e15_query", e15);
      ("e16_memory", e16);
      ("e17_serve", e17);
      ("bechamel", run_bechamel);
    ]
  in
  (* Optional filter: `bench/main.exe e11_engine e13_scale` runs only the
     named experiments (unknown names fail loudly). *)
  let experiments =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> experiments
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n experiments) then (
              Printf.eprintf "unknown experiment %S\n" n;
              exit 2))
          names;
        List.filter (fun (n, _) -> List.mem n names) experiments
  in
  let results = List.map (fun (name, f) -> (name, f ())) experiments in
  let doc =
    J.Obj
      ([
         ("schema", J.String "pvr-bench/1");
         ("rsa_bits", J.Int 1024);
         ("max_providers", J.Int max_k);
       ]
      @ results
      @ [
          (* Cumulative op counts and span histograms over the whole run. *)
          ( "totals",
            Obs.Snapshot.to_json (Obs.Snapshot.capture ()) );
        ])
  in
  (* Atomic temp-file-then-rename: an interrupted bench can never leave a
     torn BENCH_pvr.json behind. *)
  Pvr_store.Atomic_file.write ~fsync:false bench_json_path
    (J.to_string doc ^ "\n");
  print_newline ();
  Printf.printf
    "All experiments completed; machine-readable results written to %s.\n"
    bench_json_path;
  print_endline "See EXPERIMENTS.md for the mapping to the paper."
