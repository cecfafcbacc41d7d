(* PR 6: adversary strategy zoo and the quantitative privacy meter.
   Covers plan purity/determinism, the §2.3 Confidentiality claim as a
   bit-count (honest rounds leak exactly the paper's disclosure set),
   cheat detection with evidence naming the right party, the
   timeout-vs-byzantine conviction precedence, and the seeded
   reproducibility of the whole E14 surface (engine digests and the
   [pvr adversary] CLI output). *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto
module E = Pvr_engine.Engine

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prefix0 = G.Prefix.of_string "10.0.0.0/8"
let a_as = asn 1
let b_as = asn 100
let providers = List.init 4 (fun i -> asn (10 + i))

let keyring =
  lazy
    (P.Keyring.create ~bits:512
       (C.Drbg.of_int_seed 6400)
       (a_as :: b_as :: providers))

let mk_route n len =
  let path = List.init len (fun j -> if j = 0 then n else asn (3000 + j)) in
  let base = G.Route.originate ~asn:n prefix0 in
  { base with G.Route.as_path = path; next_hop = n }

let routes = List.mapi (fun i n -> (n, mk_route n (i + 2))) providers
let shortest = snd (List.hd routes)

(* ---- strategy plans -------------------------------------------------------------- *)

let seed_of i = Printf.sprintf "seed-%d" i

let plan_deterministic =
  qtest "plan: pure function of (seed, vertex, epoch)" QCheck2.Gen.small_int
    (fun i ->
      let seed = seed_of i in
      List.for_all
        (fun s ->
          let p () =
            P.Adversary.plan_round s ~seed ~prover:a_as ~prefix:prefix0
              ~epoch:(1 + (i mod 5))
          in
          p () = p ())
        P.Adversary.all_strategies)

let plan_sweep_is_behaviour =
  qtest ~count:10 "plan: sweep plans its behaviour everywhere"
    QCheck2.Gen.small_int (fun i ->
      List.for_all
        (fun b ->
          let plan =
            P.Adversary.plan_round (P.Adversary.Sweep b) ~seed:(seed_of i)
              ~prover:(asn (1 + (i mod 50)))
              ~prefix:prefix0 ~epoch:1
          in
          plan.P.Adversary.rp_behaviour = b && not plan.P.Adversary.rp_comply)
        P.Adversary.all)

let plan_adaptive_low_value () =
  let strategy =
    P.Adversary.Adaptive_low_value { cheat = P.Adversary.Export_nonminimal }
  in
  List.iter
    (fun (s, cheats) ->
      let prefix = G.Prefix.of_string s in
      let plan =
        P.Adversary.plan_round strategy ~seed:"s" ~prover:a_as ~prefix
          ~epoch:1
      in
      check_bool s cheats
        (plan.P.Adversary.rp_behaviour = P.Adversary.Export_nonminimal))
    [
      ("10.0.0.0/8", false);
      ("10.1.0.0/16", false);
      ("10.1.2.0/24", true);
      ("10.1.2.0/28", true);
    ]

let plan_cross_shard_epoch_stable () =
  let strategy = P.Adversary.Cross_shard { shards = 4; target = 1 } in
  let provers = List.init 40 (fun i -> asn (i + 1)) in
  let cheats epoch =
    List.filter
      (fun p ->
        (P.Adversary.plan_round strategy ~seed:"s" ~prover:p ~prefix:prefix0
           ~epoch)
          .P.Adversary.rp_behaviour
        = P.Adversary.Equivocate)
      provers
  in
  let e1 = cheats 1 in
  (* the dirty subset is a vertex property, not an epoch one — the same
     provers equivocate in every epoch *)
  check_bool "epoch-stable subset" true (e1 = cheats 7);
  check_bool "subset non-empty" true (e1 <> []);
  check_bool "subset proper" true (List.length e1 < List.length provers)

let plan_timing_probe_complies () =
  let strategy = P.Adversary.Timing_probe { period = 2 } in
  let plans =
    List.map
      (fun i ->
        P.Adversary.plan_round strategy ~seed:"s" ~prover:(asn (i + 1))
          ~prefix:prefix0 ~epoch:((i mod 3) + 1))
      (List.init 60 Fun.id)
  in
  let stonewalls =
    List.filter
      (fun p -> p.P.Adversary.rp_behaviour = P.Adversary.Suppress_export)
      plans
  in
  check_bool "some vertices stonewall" true (stonewalls <> []);
  check_bool "some vertices stay honest" true
    (List.exists
       (fun p -> p.P.Adversary.rp_behaviour = P.Adversary.Honest)
       plans);
  (* probes stonewall the protocol but answer the judge honestly *)
  check_bool "stonewalls comply with challenges" true
    (List.for_all (fun p -> p.P.Adversary.rp_comply) stonewalls)

let strategy_names_roundtrip () =
  List.iter
    (fun s ->
      let name = P.Adversary.strategy_to_string s in
      check_bool name true (P.Adversary.strategy_of_string name = Some s))
    P.Adversary.all_strategies;
  (* bare behaviour names select a sweep *)
  check_bool "equivocate" true
    (P.Adversary.strategy_of_string "equivocate"
    = Some (P.Adversary.Sweep P.Adversary.Equivocate));
  check_bool "unknown" true (P.Adversary.strategy_of_string "nope" = None)

(* ---- ledger + audit on single rounds --------------------------------------------- *)

(* Explicit per-call seeds: every round is reproducible on its own,
   independent of which other tests ran before it. *)
let run_round ?comply ?faults ~seed behaviour =
  let ledger = P.Leakage.Ledger.create () in
  let nr =
    P.Runner.min_round_faulty ?faults ~ledger ?comply behaviour
      (C.Drbg.of_int_seed seed) (Lazy.force keyring) ~prover:a_as
      ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes
  in
  (nr, ledger)

let audits_of ledger =
  let alpha = P.Access_control.figure1 ~beneficiary:b_as ~providers in
  let view_of v = P.Leakage.Ledger.view ledger ~viewer:v in
  let provider_audits =
    List.map
      (fun (p, r) ->
        let baseline = P.Leakage.plain_bgp_provider ~me:p ~my_route:r in
        P.Leakage.audit
          ~viewer:(G.Asn.to_string p)
          ~authorized:(P.Leakage.alpha_authorizes alpha ~viewer:p)
          ~baseline
          ~observed:(baseline @ view_of p)
          ())
      routes
  in
  let bene_baseline =
    P.Leakage.plain_bgp_beneficiary ~exported:(Some shortest)
  in
  let bene =
    P.Leakage.audit
      ~viewer:(G.Asn.to_string b_as)
      ~authorized:(P.Leakage.alpha_authorizes alpha ~viewer:b_as)
      ~baseline:bene_baseline
      ~observed:(bene_baseline @ view_of b_as)
      ()
  in
  (* the full provider coalition pooling its disclosed bits *)
  let coalition =
    let baselines =
      List.map
        (fun (p, r) -> P.Leakage.plain_bgp_provider ~me:p ~my_route:r)
        routes
    in
    let baseline = P.Leakage.pooled baselines in
    P.Leakage.audit ~viewer:"coalition"
      ~authorized:(fun f ->
        List.exists
          (fun (p, _) -> P.Leakage.alpha_authorizes alpha ~viewer:p f)
          routes)
      ~baseline
      ~observed:
        (P.Leakage.pooled (baseline :: List.map (fun (p, _) -> view_of p) routes))
      ()
  in
  bene :: coalition :: provider_audits

let honest_zero_excess () =
  let nr, ledger = run_round ~seed:64001 P.Adversary.Honest in
  check_bool "clean" false nr.P.Runner.base.P.Runner.detected;
  let audits = audits_of ledger in
  List.iter
    (fun a ->
      check_int (a.P.Leakage.au_viewer ^ " excess bits") 0
        a.P.Leakage.au_excess_bits;
      check_bool
        (a.P.Leakage.au_viewer ^ " observed something")
        true
        (a.P.Leakage.au_observed_bits > 0))
    audits;
  (match P.Leakage.validate_privacy_claims audits with
  | Ok () -> ()
  | Error lines -> Alcotest.fail (String.concat "; " lines));
  (* every party's ledger view is non-empty: the paper's disclosure set
     did reach them and was accounted *)
  check_int "all parties plus the court heard something" 5
    (List.length (P.Leakage.Ledger.viewers ledger))

let false_bits_flagged () =
  let nr, ledger = run_round ~seed:64001 P.Adversary.False_bits in
  check_bool "detected" true nr.P.Runner.base.P.Runner.detected;
  check_bool "convicted" true nr.P.Runner.base.P.Runner.convicted;
  let audits = audits_of ledger in
  let excess =
    List.fold_left (fun n a -> n + a.P.Leakage.au_excess_bits) 0 audits
  in
  check_bool "meter flags the cheat (positive excess)" true (excess > 0);
  (* this particular cheat also exports a nonminimal route, handing the
     beneficiary a provider's full input route that α does not authorize —
     the privacy meter must report that, naming the beneficiary *)
  (match P.Leakage.validate_privacy_claims audits with
  | Ok () -> Alcotest.fail "meter silent on an unauthorized disclosure"
  | Error lines ->
      check_bool "violation names the beneficiary" true
        (List.exists
           (fun l ->
             String.length l >= 5 && String.sub l 0 5 = G.Asn.to_string b_as)
           lines))

let equivocation_names_prover () =
  let nr, _ = run_round ~seed:64002 P.Adversary.Equivocate in
  let r = nr.P.Runner.base in
  check_bool "detected" true r.P.Runner.detected;
  check_bool "convicted" true r.P.Runner.convicted;
  let guilty =
    List.filter (fun (_, _, v) -> v = P.Judge.Guilty) r.P.Runner.judged
  in
  check_bool "guilty evidence exists" true (guilty <> []);
  List.iter
    (fun (_, e, _) ->
      check_bool "evidence names the equivocating prover" true
        (G.Asn.equal (P.Evidence.accused e) a_as))
    guilty;
  check_bool "equivocation evidence present" true
    (List.exists
       (fun (_, e, _) ->
         match e with P.Evidence.Equivocation _ -> true | _ -> false)
       guilty)

let stonewall_comply_exonerated () =
  let nr, _ = run_round ~seed:64003 ~comply:true P.Adversary.Suppress_export in
  let r = nr.P.Runner.base in
  check_bool "detected" true r.P.Runner.detected;
  check_bool "exonerated" true r.P.Runner.exonerated;
  check_bool "never convicted" false r.P.Runner.convicted;
  (* without compliance the same stonewalling is convicted *)
  let nr2, _ = run_round ~seed:64004 P.Adversary.Suppress_export in
  check_bool "stonewalling the judge too convicts" true
    nr2.P.Runner.base.P.Runner.convicted

(* ---- engine-level: precedence and reproducibility -------------------------------- *)

let mk_engine ?faults ~seed ~ases strategy =
  let master = C.Drbg.of_int_seed seed in
  let topo =
    G.Topology.generate (C.Drbg.split master "topology") ~ases ()
  in
  let ekeyring =
    P.Keyring.create ~bits:512
      (C.Drbg.split master "keys")
      (G.Topology.ases topo)
  in
  let sim = G.Simulator.create topo in
  List.iter
    (fun (a, p) -> G.Simulator.originate sim ~asn:a p)
    (G.Topology.tiered_prefixes topo);
  E.create ~salt_every:1 ~strategy ?faults
    (C.Drbg.split master "engine")
    ekeyring ~topology:topo ~sim ()

let outcomes_of eng epochs =
  List.concat_map (fun _ -> (E.epoch eng).E.ep_outcomes)
    (List.init epochs Fun.id)

(* Timeout-vs-byzantine precedence: under a lossy network an honest
   prover may be accused (Timeout around an omission claim) while a
   colluding neighbor equivocates the same epoch — the stonewalled-but-
   honest party must never be convicted, the equivocator must be. *)
let precedence_timeouts_never_convict () =
  let faults =
    {
      P.Runner.perfect_faults with
      P.Runner.fp_policy = Pvr_net.faulty ~drop:0.35 ();
      P.Runner.fp_retry_budget = 1;
    }
  in
  let eng =
    mk_engine ~faults ~seed:21 ~ases:10
      (P.Adversary.Cross_shard { shards = 3; target = 0 })
  in
  let outcomes = outcomes_of eng 2 in
  let honest, cheats =
    List.partition (fun o -> o.E.vx_behaviour = P.Adversary.Honest) outcomes
  in
  check_bool "both populations present" true (honest <> [] && cheats <> []);
  (* the lossy net did put honest provers in front of the judge *)
  check_bool "some honest vertex accused" true
    (List.exists (fun o -> o.E.vx_detected) honest);
  List.iter
    (fun o ->
      check_bool "honest prover never convicted" false o.E.vx_convicted)
    honest;
  check_bool "an equivocator was convicted the same runs" true
    (List.exists (fun o -> o.E.vx_convicted) cheats)

let engine_same_seed_identical () =
  List.iter
    (fun strategy ->
      let run () =
        let eng = mk_engine ~seed:33 ~ases:8 strategy in
        let outcomes = outcomes_of eng 2 in
        (E.digest eng, List.map (fun o -> o.E.vx_line) outcomes)
      in
      let d1, lines1 = run () in
      let d2, lines2 = run () in
      Alcotest.(check string)
        (P.Adversary.strategy_to_string strategy)
        d1 d2;
      check_bool "outcome lines identical" true (lines1 = lines2))
    P.Adversary.all_strategies

(* ---- CLI ------------------------------------------------------------------------- *)

let cli = "../bin/pvr_cli.exe"

let cli_matrix_reproducible () =
  let capture file =
    Sys.command
      (Printf.sprintf
         "%s adversary --seed 9 --ases 10 --epochs 1 > %s 2>&1" cli file)
  in
  let read file =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    s
  in
  check_int "first run exits 0" 0 (capture "adv_run1.txt");
  check_int "second run exits 0" 0 (capture "adv_run2.txt");
  let s1 = read "adv_run1.txt" and s2 = read "adv_run2.txt" in
  check_bool "byte-identical output" true (s1 = s2);
  (* Pinned bytes: the CLI is the only implementation of the zoo tally
     and its §2.3 violation rules, so any drift in them shows here. *)
  Alcotest.(check string) "pinned output sha256"
    "78ecdbba534c153e043475a5753246bd6e17ed775fa2f2ba5950effede5c3b4e"
    (C.Sha256.digest_hex s1);
  let contains needle =
    let nl = String.length needle and hl = String.length s1 in
    let rec go i =
      i + nl <= hl && (String.sub s1 i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "matrix lines present" true
    (String.length s1 > 0
    && List.for_all contains [ "strategy=timing-probe"; "violations=0" ])

let suite =
  [
    plan_deterministic;
    plan_sweep_is_behaviour;
    ("plan: adaptive cheats only on low-value prefixes", `Quick,
     plan_adaptive_low_value);
    ("plan: cross-shard subset epoch-stable", `Quick,
     plan_cross_shard_epoch_stable);
    ("plan: timing probe stonewalls and complies", `Quick,
     plan_timing_probe_complies);
    ("strategy: names round-trip", `Quick, strategy_names_roundtrip);
    ("leakage: honest round leaks zero excess bits", `Quick,
     honest_zero_excess);
    ("leakage: false bits flagged by the meter", `Quick, false_bits_flagged);
    ("judge: equivocation evidence names the prover", `Quick,
     equivocation_names_prover);
    ("judge: complying stonewaller exonerated, never convicted", `Quick,
     stonewall_comply_exonerated);
    ("engine: timeouts never convict honest provers", `Slow,
     precedence_timeouts_never_convict);
    ("engine: same-seed zoo runs byte-identical", `Slow,
     engine_same_seed_identical);
    ("cli: adversary matrix reproducible", `Slow, cli_matrix_reproducible);
  ]
