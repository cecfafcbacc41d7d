(* Concurrency stress/determinism battery: the persistent domain pool,
   domain-local interning and sharded observability counters.  The anchor
   is the digest invariant — every epoch digest must be byte-identical
   across jobs x intern x cache settings, even under adversarial
   scheduling perturbation — plus unit checks that interning state stays
   on its domain and the counter fold is exact, not merely statistically
   close. *)

module P = Pvr
module E = Pvr_engine.Engine
module Pool = Pvr_engine.Pool
module Obs = Pvr_obs
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let with_intern enabled f =
  Fun.protect
    ~finally:(fun () -> G.Intern.set_enabled false)
    (fun () ->
      G.Intern.set_enabled enabled;
      f ())

(* ---- differential engine runs ----------------------------------------------------- *)

let diff_ases = 16

let diff_keyring =
  lazy
    (P.Keyring.create ~bits:512
       (C.Drbg.of_int_seed 4242)
       (List.init diff_ases (fun i -> asn (i + 1))))

(* One seeded 3-epoch workload: the engine and its per-epoch report
   digests. *)
let diff_engine ~seed ~jobs ~cache () =
  let topo = G.Topology.generate (C.Drbg.of_int_seed seed) ~ases:diff_ases () in
  let origins = List.init 3 (fun i -> asn (diff_ases - i)) in
  let sim = G.Simulator.create topo in
  let churn =
    G.Update_gen.Churn.create ~anycast:1 ~origins ~prefixes_per_origin:2 ()
  in
  let churn_rng = C.Drbg.of_int_seed (seed + 1) in
  let eng =
    E.create ~jobs ~cache ~salt_every:2
      (C.Drbg.of_int_seed (seed + 2))
      (Lazy.force diff_keyring) ~topology:topo ~sim ()
  in
  let digests = ref [] in
  for i = 1 to 3 do
    let apply sim =
      if i = 1 then List.length (G.Update_gen.Churn.seed churn sim)
      else
        List.length (G.Update_gen.Churn.step churn_rng ~turnover:0.4 churn sim)
    in
    let r = E.epoch ~apply eng in
    digests := r.E.ep_digest :: !digests
  done;
  (eng, List.rev !digests)

(* The per-epoch report digests and the final RIB digest.  Everything that
   may legally vary — jobs, intern, cache — is a parameter; the
   digests must not notice. *)
let diff_run ~seed ~intern ~jobs ~cache () =
  with_intern intern @@ fun () ->
  let eng, digests = diff_engine ~seed ~jobs ~cache () in
  (digests, E.rib_digest eng)

(* jobs in {1,2,4,8} x intern on/off x cache: every combination must
   reproduce the jobs=1 plain-representation baseline byte for byte. *)
let digest_differential =
  let open QCheck2.Gen in
  let gen =
    let* seed = 1 -- 1000 in
    let* jobs = oneofl [ 1; 2; 4; 8 ] in
    let* intern = bool in
    let* cache = bool in
    return (seed, jobs, intern, cache)
  in
  qtest ~count:8 "digests: jobs x intern x cache differential" gen
    (fun (seed, jobs, intern, cache) ->
      let base, base_rib =
        diff_run ~seed ~intern:false ~jobs:1 ~cache:true ()
      in
      let d, rib = diff_run ~seed ~intern ~jobs ~cache () in
      base = d && base_rib = rib && base <> [])

(* Scheduler perturbation: seeded random sleeps before every pool task
   reshuffle the interleaving (handout order, counter cell assignment)
   without touching the computation.  The digests must not move.  The
   hook is process-global state, so it is always removed again even on
   failure. *)
let perturbed_schedule_deterministic () =
  let base, base_rib =
    diff_run ~seed:271 ~intern:true ~jobs:1 ~cache:true ()
  in
  List.iter
    (fun pseed ->
      let st = Random.State.make [| pseed |] in
      let mu = Mutex.create () in
      let sleep _i =
        let d =
          Mutex.lock mu;
          let d = Random.State.float st 0.002 in
          Mutex.unlock mu;
          d
        in
        if d > 0.0005 then Unix.sleepf d
      in
      Fun.protect
        ~finally:(fun () -> Pool.set_perturb None)
        (fun () ->
          Pool.set_perturb (Some sleep);
          let d, rib =
            diff_run ~seed:271 ~intern:true ~jobs:4 ~cache:true ()
          in
          Alcotest.(check (list string))
            (Printf.sprintf "perturb seed %d: epoch digests" pseed)
            base d;
          check_string
            (Printf.sprintf "perturb seed %d: rib digest" pseed)
            base_rib rib))
    [ 7; 99; 1234 ]

(* ---- domain-local interning -------------------------------------------------------- *)

let mk_route ~addr ~len ~path ~lp =
  match path with
  | [] -> invalid_arg "mk_route: empty path"
  | first :: _ ->
      {
        G.Route.prefix = G.Prefix.make ~addr ~len;
        as_path = List.map asn path;
        next_hop = asn first;
        local_pref = lp;
        med = 0;
        origin = G.Route.Igp;
        communities = [];
      }

let sample_route i =
  mk_route ~addr:(10 lsl 24) ~len:24 ~path:[ 3 + (i mod 8); 2; 1 ] ~lp:100

(* Interning state belongs to the calling domain: a second domain that
   turns its own interning off neither flips the first domain's toggle nor
   clears its tables.  A serve worker running a [p_intern = false] session
   must not disturb another worker's interned session. *)
let intern_domain_local () =
  with_intern true @@ fun () ->
  let r = G.Intern.route (sample_route 0) in
  let other =
    Domain.join
      (Domain.spawn (fun () ->
           G.Intern.set_enabled false;
           let copy = sample_route 0 in
           G.Intern.route copy == copy))
  in
  check_bool "the other domain's route is the identity" true other;
  check_bool "this domain's toggle is untouched" true (G.Intern.enabled ());
  check_bool "this domain's table survives" true
    (G.Intern.route (sample_route 0) == r)

(* ---- sharded counters -------------------------------------------------------------- *)

let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset_all ())
    (fun () ->
      Obs.reset_all ();
      Obs.set_enabled true;
      f ())

(* Four domains hammer one counter; the fold after the join must equal
   the exact arithmetic total — sharding loses nothing. *)
let sharded_counter_fold_exact () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.concurrency.hammer" in
  let per_task = 10_000 in
  let tasks =
    Array.init 8 (fun _ ->
        fun () ->
          for _ = 1 to per_task do
            Obs.incr c
          done;
          Obs.add c 5)
  in
  ignore (Pool.run ~jobs:4 tasks : unit array);
  let expect = (8 * per_task) + (8 * 5) in
  check_int "fold equals arithmetic total" expect (Obs.value c);
  let snap = Obs.Snapshot.capture () in
  check_int "snapshot capture folds identically" expect
    (Obs.Snapshot.counter_value snap "test.concurrency.hammer")

(* Cross-check against the runner's always-exact local counts: a protocol
   round counts its messages locally (single-domain, exact by
   construction) and adds the same counts to the sharded global counter.
   The two must agree to the message. *)
let sharded_counter_vs_runner_report () =
  with_obs @@ fun () ->
  let prover = asn 1 and beneficiary = asn 50 in
  let providers = List.init 3 (fun i -> asn (10 + i)) in
  let kr =
    P.Keyring.create ~bits:512
      (C.Drbg.of_int_seed 555)
      (prover :: beneficiary :: providers)
  in
  let prefix = G.Prefix.of_string "10.0.0.0/8" in
  let route n len =
    let path = List.init len (fun j -> if j = 0 then n else asn (3000 + j)) in
    let base = G.Route.originate ~asn:n prefix in
    { base with G.Route.as_path = path; next_hop = n }
  in
  let routes = List.mapi (fun i n -> (n, route n (i + 2))) providers in
  let total = ref 0 in
  for i = 1 to 3 do
    let r =
      P.Runner.min_round ~max_path_len:8 P.Adversary.Honest
        (C.Drbg.of_int_seed (600 + i))
        kr ~prover ~beneficiary ~epoch:i ~prefix ~routes
    in
    check_bool "round counted messages" true (r.P.Runner.messages > 0);
    total := !total + r.P.Runner.messages
  done;
  let snap = Obs.Snapshot.capture () in
  check_int "sharded fold = sum of tally-exact reports" !total
    (Obs.Snapshot.counter_value snap "runner.messages")

(* Folds also stay exact when increments arrive from pool worker domains
   racing the inline path (cells are per-domain; the fold sums them). *)
let sharded_counter_multi_domain_mix () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.concurrency.mix" in
  let tasks = Array.init 6 (fun _ -> fun () -> Obs.add c 100) in
  ignore (Pool.run ~jobs:3 tasks : unit array);
  Obs.add c 1;
  check_int "mixed-domain fold" 601 (Obs.value c)

(* Epoch-batched signing (§3.8): a signer's batch is the set of its memo
   misses across the dirty set, so its Merkle tree — and every signature
   cut from it — must not depend on which worker drafted which vertex. *)
let batched_signatures_jobs_invariant () =
  let sigs jobs =
    let eng, _ = diff_engine ~seed:271 ~jobs ~cache:true () in
    E.signatures eng
  in
  let s1 = sigs 1 and s2 = sigs 2 in
  check_bool "signatures retained" true (s1 <> []);
  check_bool "some signatures are batched" true
    (List.exists (fun (_, s) -> String.length s > 64) s1);
  check_bool "identical at jobs 1 and 2" true (s1 = s2)

let suite =
  [
    digest_differential;
    ( "digests: stable under seeded scheduler perturbation",
      `Slow,
      perturbed_schedule_deterministic );
    ("intern: toggle and tables are domain-local", `Quick, intern_domain_local);
    ("obs: sharded counter fold is exact across domains", `Quick,
      sharded_counter_fold_exact);
    ("obs: sharded fold matches runner tally reports", `Quick,
      sharded_counter_vs_runner_report);
    ("obs: mixed inline/worker increments fold exactly", `Quick,
      sharded_counter_multi_domain_mix);
    ("signatures: batched signatures identical at jobs 1 and 2", `Quick,
      batched_signatures_jobs_invariant);
  ]
