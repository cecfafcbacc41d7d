(* Tests for pvr_net (the deterministic fault-injecting transport) and for
   the net-driven verification rounds: ARQ recovery, timeout evidence,
   batched signatures as untrusted bytes, gossip invariance under
   duplication/reordering, counter cross-checks, the zero-fault E8
   regression, and the adversarial soak asserting §2.3 Accuracy and
   Detection under fault schedules. *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto
module N = Pvr_net
module Obs = Pvr_obs

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prefix0 = G.Prefix.of_string "10.0.0.0/8"
let a_as = asn 1
let b_as = asn 100
let providers = List.init 3 (fun i -> asn (10 + i))

(* One shared keyring for the whole suite: keygen dominates runtime. *)
let keyring =
  lazy
    (P.Keyring.create ~bits:512
       (C.Drbg.of_int_seed 4242)
       (a_as :: b_as :: providers))

let mk_route n len =
  let path = List.init len (fun j -> if j = 0 then n else asn (3000 + j)) in
  let base = G.Route.originate ~asn:n prefix0 in
  { base with G.Route.as_path = path; next_hop = n }

let routes_for lens =
  List.map2 (fun n len -> (n, mk_route n len)) providers lens

let max_path_len = 8

let run_faulty ?(faults = P.Runner.perfect_faults) ?(lens = [ 2; 3; 4 ]) beh
    seed =
  P.Runner.min_round_faulty ~max_path_len ~faults beh
    (C.Drbg.of_int_seed seed) (Lazy.force keyring) ~prover:a_as
    ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes:(routes_for lens)

let drop_faults =
  {
    P.Runner.perfect_faults with
    P.Runner.fp_policy = N.faulty ~drop:0.15 ~duplicate:0.05 ~delay_max:2 ();
  }

(* ---- transport ------------------------------------------------------------------ *)

let perfect_delivers_in_order () =
  let net = N.create ~rng:(C.Drbg.of_int_seed 1) () in
  N.send net ~src:a_as ~dst:b_as "one";
  N.send net ~src:a_as ~dst:b_as "two";
  N.send net ~src:b_as ~dst:a_as "three";
  let got = ref [] in
  let ticks =
    N.run net ~handler:(fun ~src:_ ~dst:_ msg -> got := msg :: !got) ()
  in
  check_int "one tick" 1 ticks;
  Alcotest.(check (list string))
    "in order" [ "one"; "two"; "three" ] (List.rev !got);
  check_int "deliveries" 3 (N.stats net).N.deliveries;
  check_int "drops" 0 (N.stats net).N.drops

let drop_all_loses_everything () =
  let net =
    N.create ~policy:(N.faulty ~drop:1.0 ()) ~rng:(C.Drbg.of_int_seed 2) ()
  in
  N.send net ~src:a_as ~dst:b_as "lost";
  check_int "nothing pending" 0 (N.pending net);
  check_int "drop counted" 1 (N.stats net).N.drops

let duplicate_doubles () =
  let net =
    N.create
      ~policy:(N.faulty ~duplicate:1.0 ())
      ~rng:(C.Drbg.of_int_seed 3) ()
  in
  N.send net ~src:a_as ~dst:b_as "twice";
  let seen = ref 0 in
  let (_ : int) = N.run net ~handler:(fun ~src:_ ~dst:_ _ -> incr seen) () in
  check_int "delivered twice" 2 !seen;
  check_int "duplicate counted" 1 (N.stats net).N.duplicates

let partition_heals () =
  let net =
    N.create
      ~policy:(N.faulty ~partition:true ~heal_at:3 ())
      ~rng:(C.Drbg.of_int_seed 4) ()
  in
  N.send net ~src:a_as ~dst:b_as "early";
  check_int "partitioned away" 1 (N.stats net).N.partition_drops;
  (* Advance time past the healing point, then resend. *)
  for _ = 1 to 3 do
    ignore (N.tick net)
  done;
  N.send net ~src:a_as ~dst:b_as "late";
  let seen = ref [] in
  let (_ : int) =
    N.run net ~handler:(fun ~src:_ ~dst:_ m -> seen := m :: !seen) ()
  in
  Alcotest.(check (list string)) "healed delivery" [ "late" ] !seen

let chaos_preserves_multiset =
  (* Delay + duplication + reordering never lose a message, and the whole
     schedule is a deterministic function of the seed. *)
  qtest "chaos delivery is lossless and seed-deterministic" ~count:30
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let deliveries s =
        let net =
          N.create
            ~policy:(N.faulty ~duplicate:0.3 ~delay_max:4 ~reorder:true ())
            ~rng:(C.Drbg.of_int_seed s) ()
        in
        let payloads = List.init 10 string_of_int in
        List.iter (fun m -> N.send net ~src:a_as ~dst:b_as m) payloads;
        let got = ref [] in
        let (_ : int) =
          N.run net ~handler:(fun ~src:_ ~dst:_ m -> got := m :: !got) ()
        in
        !got
      in
      let got = deliveries seed in
      List.length (List.sort_uniq compare got) = 10
      && deliveries seed = got)

let reliable_recovers_from_drops () =
  let net =
    N.create ~policy:(N.faulty ~drop:0.3 ()) ~rng:(C.Drbg.of_int_seed 5) ()
  in
  let conn = N.Reliable.create ~interval:2 ~budget:6 net in
  let payloads = List.init 10 string_of_int in
  List.iter (fun m -> N.Reliable.send conn ~src:a_as ~dst:b_as m) payloads;
  let got = ref [] in
  let (_ : int) =
    N.Reliable.run conn
      ~handler:(fun ~src:_ ~dst:_ m ->
        if not (List.mem m !got) then got := m :: !got)
      ()
  in
  check_int "all ten delivered" 10 (List.length !got);
  check_bool "sender learned of delivery" true
    (List.for_all (fun m -> N.Reliable.acked conn ~src:a_as ~dst:b_as m)
       payloads);
  check_bool "needed retries" true (N.Reliable.retries conn > 0);
  check_int "no failures" 0 (N.Reliable.failures conn)

let reliable_times_out_under_partition () =
  let net =
    N.create ~policy:(N.faulty ~partition:true ()) ~rng:(C.Drbg.of_int_seed 6)
      ()
  in
  let conn = N.Reliable.create ~interval:2 ~budget:3 net in
  N.Reliable.send conn ~src:a_as ~dst:b_as "void";
  let (_ : int) = N.Reliable.run conn ~handler:(fun ~src:_ ~dst:_ _ -> ()) () in
  check_int "abandoned" 1 (N.Reliable.failures conn);
  check_int "used the whole budget" 3 (N.Reliable.retries conn);
  check_bool "never acked" false (N.Reliable.acked conn ~src:a_as ~dst:b_as "void")

let reliable_duplicates_reach_handler () =
  (* Duplicated data frames surface as duplicate handler calls: receivers
     must be idempotent, which the round engine's first-wins tables are. *)
  let net =
    N.create
      ~policy:(N.faulty ~duplicate:1.0 ())
      ~rng:(C.Drbg.of_int_seed 7) ()
  in
  let conn = N.Reliable.create net in
  N.Reliable.send conn ~src:a_as ~dst:b_as "again";
  let seen = ref 0 in
  let (_ : int) =
    N.Reliable.run conn ~handler:(fun ~src:_ ~dst:_ _ -> incr seen) ()
  in
  check_bool "handler saw duplicates" true (!seen >= 2);
  check_bool "still acked" true (N.Reliable.acked conn ~src:a_as ~dst:b_as "again")

(* ---- sample statements (the decoder table's fuzz corpus, Test_codec) ------------ *)

let sample_announce () =
  P.Runner.announce_of_route (Lazy.force keyring) ~provider:(List.hd providers)
    ~prover:a_as ~epoch:1
    (mk_route (List.hd providers) 3)

let sample_commit () =
  P.Wire.sign (Lazy.force keyring) ~as_:a_as ~encode:P.Wire.encode_commit
    {
      P.Wire.cmt_epoch = 1;
      cmt_prefix = prefix0;
      cmt_scheme = "min";
      cmt_commitments = List.init 4 (fun i -> String.make 32 (Char.chr (65 + i)));
    }

let sample_export () =
  P.Wire.sign (Lazy.force keyring) ~as_:a_as ~encode:P.Wire.encode_export
    {
      P.Wire.exp_epoch = 1;
      exp_to = b_as;
      exp_route = mk_route (List.hd providers) 3;
      exp_provenance = Some (sample_announce ());
    }

let some_opening = { C.Commitment.value = "1"; nonce = String.make 32 'n' }

let sample_evidence () =
  [
    P.Evidence.Equivocation { first = sample_commit (); second = sample_commit () };
    P.Evidence.False_bit
      {
        commit = sample_commit ();
        index = 2;
        opening = some_opening;
        witness = sample_announce ();
      };
    P.Evidence.Missing_export_claim
      { commit = sample_commit (); openings = [ (1, some_opening) ]; claimant = b_as };
    P.Evidence.Timeout
      {
        claim =
          P.Evidence.Missing_disclosure_claim
            {
              commit = sample_commit ();
              announce = sample_announce ();
              claimant = List.hd providers;
            };
        retries = 3;
      };
  ]

(* ---- batched signatures as untrusted bytes ---------------------------------------- *)

(* Two batches of announces by one provider (RSA-512: 64-byte root
   signature, then a 16-byte nonce, a u32 index and 32-byte siblings). *)
let batched_announces =
  lazy
    (let kr = Lazy.force keyring in
     let n = List.hd providers in
     let sign_all epoch count =
       let drafts =
         List.init count (fun i ->
             P.Wire.draft ~as_:n ~encode:P.Wire.encode_announce
               {
                 P.Wire.ann_epoch = epoch;
                 ann_to = a_as;
                 ann_route = mk_route n (i + 1);
               })
       in
       P.Wire.sign_batch kr (List.map (fun d -> P.Wire.Pending d) drafts);
       List.map P.Wire.signed drafts
     in
     (sign_all 1 5, sign_all 2 3))

(* The same statement under other signature bytes, decoded from transport
   bytes as a receiver would. *)
let with_signature (s : P.Wire.announce P.Wire.signed) signature =
  match
    P.Wire.decode_signed ~decode:P.Wire.decode_announce
      (C.Codec.encode_list
         [
           P.Wire.encode_announce s.P.Wire.payload;
           C.Bytes_util.be32 (G.Asn.to_int s.P.Wire.signer);
           signature;
         ])
  with
  | Some s' -> s'
  | None -> Alcotest.fail "transport bytes did not decode"

let batched_signature_mutations_rejected =
  qtest "batched signatures: mutated bytes verify false, never raise"
    ~count:200
    QCheck2.Gen.(triple (int_bound 5) (int_bound 4) (int_bound 1_000_000))
    (fun (kind, which, r) ->
      let kr = Lazy.force keyring in
      let first, second = Lazy.force batched_announces in
      let target = List.nth first which in
      let sg = target.P.Wire.signature in
      let len = String.length sg in
      let kb = 64 in
      let flip pos =
        Bytes.to_string
          (let b = Bytes.of_string sg in
           Bytes.set b pos
             (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (r mod 8))));
           b)
      in
      let mutated =
        match kind with
        | 0 -> String.sub sg 0 (r mod len) (* truncated *)
        | 1 -> flip (kb + 20 + (r mod (len - kb - 20))) (* a sibling byte *)
        | 2 -> flip (kb + (r mod 16)) (* a nonce byte *)
        | 3 -> flip (kb + 16 + (r mod 4)) (* an index byte *)
        | 4 ->
            (* an index beyond the 3-level path *)
            String.sub sg 0 (kb + 16)
            ^ C.Bytes_util.be32 (8 + r)
            ^ String.sub sg (kb + 20) (len - kb - 20)
        | _ ->
            (* a valid root signature paired with a foreign path *)
            let foreign =
              (List.nth second (r mod 3)).P.Wire.signature
            in
            String.sub foreign 0 kb ^ String.sub sg kb (len - kb)
      in
      let forged = with_signature target mutated in
      let valid = List.nth first ((which + 1) mod 5) in
      match
        ( P.Wire.verify kr ~encode:P.Wire.encode_announce forged,
          P.Wire.verify_batch kr
            (List.map
               (P.Wire.check ~encode:P.Wire.encode_announce)
               [ forged; valid ]) )
      with
      | false, [ false; true ] -> true
      | _ -> false
      | exception e ->
          Printf.eprintf "verify raised %s\n" (Printexc.to_string e);
          false)

(* ---- Timeout evidence ----------------------------------------------------------- *)

let timeout_roundtrip_and_nesting () =
  let claim =
    P.Evidence.Missing_disclosure_claim
      {
        commit = sample_commit ();
        announce = sample_announce ();
        claimant = List.hd providers;
      }
  in
  let t = P.Evidence.Timeout { claim; retries = 3 } in
  (match P.Evidence_codec.decode (P.Evidence_codec.encode t) with
  | Some (P.Evidence.Timeout { retries = 3; claim = decoded }) ->
      check_bool "inner claim survives" true
        (P.Evidence_codec.encode decoded = P.Evidence_codec.encode claim)
  | _ -> Alcotest.fail "timeout did not roundtrip");
  check_bool "accused is the commit signer" true
    (G.Asn.equal (P.Evidence.accused t) a_as);
  (* A hand-crafted nested timeout must not decode. *)
  let nested =
    P.Evidence_codec.encode
      (P.Evidence.Timeout { claim = t; retries = 1 })
  in
  check_bool "nested timeout rejected" true
    (P.Evidence_codec.decode nested = None)

let timeout_zero_retries_rejected () =
  let kr = Lazy.force keyring in
  let claim =
    P.Evidence.Missing_export_claim
      { commit = sample_commit (); openings = []; claimant = b_as }
  in
  check_bool "no retries, no case" true
    (P.Judge.evaluate kr
       ~respond:(fun ~accused:_ _ -> P.Judge.No_response)
       (P.Evidence.Timeout { claim; retries = 0 })
    = P.Judge.Rejected)

(* ---- gossip invariance under duplication / reordering --------------------------- *)

let conflicting_commits () =
  let mk fill =
    P.Wire.sign (Lazy.force keyring) ~as_:a_as ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "min";
        cmt_commitments = List.init 4 (fun _ -> String.make 32 fill);
      }
  in
  (mk 'x', mk 'y')

let gossip_invariant_under_dup_reorder =
  qtest "gossip equivocation detection survives dup+reorder" ~count:20
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let c1, c2 = conflicting_commits () in
      let holders = providers @ [ b_as ] in
      let detect net_opt =
        let g = P.Gossip.create (Lazy.force keyring) in
        List.iter
          (fun p -> ignore (P.Gossip.receive g ~holder:p c1))
          providers;
        ignore (P.Gossip.receive g ~holder:b_as c2);
        let evs =
          match net_opt with
          | None -> P.Gossip.run_round g ~edges:(P.Gossip.clique_edges holders)
          | Some net ->
              P.Gossip.run_round ~net g
                ~edges:(P.Gossip.clique_edges holders)
        in
        List.exists
          (function P.Evidence.Equivocation _ -> true | _ -> false)
          evs
      in
      let faulty =
        N.create
          ~policy:(N.faulty ~duplicate:0.5 ~delay_max:3 ~reorder:true ())
          ~rng:(C.Drbg.of_int_seed seed) ()
      in
      detect None && detect (Some faulty))

(* ---- counters under faults (fixed seed) ----------------------------------------- *)

let counters_cross_check_fixed_seed () =
  Obs.set_enabled true;
  Obs.reset_all ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let before = Obs.Snapshot.capture () in
  let nr = run_faulty ~faults:drop_faults P.Adversary.Honest 90 in
  let d = Obs.Snapshot.diff ~before ~after:(Obs.Snapshot.capture ()) in
  let counter name = Obs.Snapshot.counter_value d name in
  check_bool "schedule exercises retries" true (nr.P.Runner.net_retries > 0);
  check_int "obs net.retries matches" nr.P.Runner.net_retries
    (counter "net.retries");
  check_int "obs net.timeouts matches" nr.P.Runner.net_timeouts
    (counter "net.timeouts");
  check_int "obs net.drops matches"
    ((let s = nr.P.Runner.net_drops + nr.P.Runner.gossip_drops in
      s))
    (counter "net.drops" + counter "net.partition_drops");
  check_int "runner.messages mirrors the report"
    nr.P.Runner.base.P.Runner.messages
    (counter "runner.messages");
  (* [messages] counts every transmission, so the faulty run with retries
     must exceed the perfect run of the same seed. *)
  let perfect = run_faulty P.Adversary.Honest 90 in
  check_bool "retransmissions counted in messages" true
    (nr.P.Runner.base.P.Runner.messages
    > perfect.P.Runner.base.P.Runner.messages)

(* ---- E8 regression over a zero-fault channel ------------------------------------ *)

let e8_sweep_zero_fault_regression () =
  List.iter
    (fun beh ->
      let direct =
        P.Runner.min_round ~max_path_len beh (C.Drbg.of_int_seed 77)
          (Lazy.force keyring) ~prover:a_as ~beneficiary:b_as ~epoch:1
          ~prefix:prefix0 ~routes:(routes_for [ 2; 3; 4 ])
      in
      let through_net = run_faulty beh 77 in
      let name = P.Adversary.to_string beh in
      check_bool (name ^ " detected agrees") direct.P.Runner.detected
        through_net.P.Runner.base.P.Runner.detected;
      check_bool (name ^ " convicted agrees") direct.P.Runner.convicted
        through_net.P.Runner.base.P.Runner.convicted;
      check_int (name ^ " messages agree") direct.P.Runner.messages
        through_net.P.Runner.base.P.Runner.messages;
      check_int (name ^ " evidence count agrees")
        (List.length direct.P.Runner.raised)
        (List.length through_net.P.Runner.base.P.Runner.raised);
      (* And the sweep itself is unchanged: honest clean, Byzantine
         convicted (routes 2<3<4 make every behaviour detectable). *)
      if beh = P.Adversary.Honest then
        check_bool "honest clean" false direct.P.Runner.detected
      else begin
        check_bool (name ^ " detected") true direct.P.Runner.detected;
        check_bool (name ^ " convicted") true direct.P.Runner.convicted
      end;
      check_bool (name ^ " nothing dropped") true
        (through_net.P.Runner.net_drops = 0
        && through_net.P.Runner.gossip_drops = 0
        && through_net.P.Runner.net_retries = 0))
    P.Adversary.all

(* ---- adversarial soak ------------------------------------------------------------ *)

let fault_gen =
  QCheck2.Gen.(
    map3
      (fun seed (drop, duplicate) (delay, reorder) ->
        (seed, drop, duplicate, delay, reorder))
      (int_bound 100_000)
      (pair (oneofl [ 0.0; 0.1; 0.25; 0.4 ]) (oneofl [ 0.0; 0.2 ]))
      (pair (int_bound 3) bool))

let faults_of (drop, duplicate, delay, reorder) =
  {
    P.Runner.perfect_faults with
    P.Runner.fp_policy =
      N.faulty ~drop ~duplicate ~delay_max:delay ~reorder ();
  }

let soak_honest_never_convicted =
  qtest "soak: honest prover never convicted under any fault schedule"
    ~count:25 fault_gen
    (fun (seed, drop, duplicate, delay, reorder) ->
      let nr =
        run_faulty
          ~faults:(faults_of (drop, duplicate, delay, reorder))
          P.Adversary.Honest seed
      in
      not nr.P.Runner.base.P.Runner.convicted)

let behaviour_gen =
  QCheck2.Gen.oneofl
    (List.filter (fun b -> b <> P.Adversary.Honest) P.Adversary.all)

let soak_detection_when_witnessed =
  qtest
    "soak: Byzantine behaviour convicted whenever its witnesses were \
     delivered"
    ~count:40
    QCheck2.Gen.(pair fault_gen behaviour_gen)
    (fun ((seed, drop, duplicate, delay, reorder), beh) ->
      let nr =
        run_faulty ~faults:(faults_of (drop, duplicate, delay, reorder)) beh
          seed
      in
      (not
         (P.Runner.detection_expected beh ~beneficiary:b_as
            ~routes:(routes_for [ 2; 3; 4 ])
            nr))
      || (nr.P.Runner.base.P.Runner.detected
         && nr.P.Runner.base.P.Runner.convicted))

let soak_retryful_schedule_convicts_all () =
  (* One concrete lossy schedule that needs retries yet convicts every
     detectable Byzantine behaviour and acquits Honest (the ISSUE's
     acceptance scenario). *)
  let retries = ref 0 in
  let required = ref 0 in
  List.iter
    (fun beh ->
      let nr = run_faulty ~faults:drop_faults beh 90 in
      retries := !retries + nr.P.Runner.net_retries;
      if beh = P.Adversary.Honest then
        check_bool "honest acquitted" false
          nr.P.Runner.base.P.Runner.convicted
      else if
        P.Runner.detection_expected beh ~beneficiary:b_as
          ~routes:(routes_for [ 2; 3; 4 ])
          nr
      then begin
        incr required;
        check_bool
          (P.Adversary.to_string beh ^ " convicted despite faults")
          true
          (nr.P.Runner.base.P.Runner.detected
          && nr.P.Runner.base.P.Runner.convicted)
      end)
    P.Adversary.all;
  check_bool "schedule required retries" true (!retries > 0);
  check_bool "non-vacuous: several detections required" true (!required >= 3)

let same_seed_same_outcome () =
  let fingerprint (nr : P.Runner.net_report) =
    ( nr.P.Runner.base.P.Runner.messages,
      nr.P.Runner.net_sends,
      nr.P.Runner.net_retries,
      nr.P.Runner.net_drops,
      nr.P.Runner.ticks,
      List.map
        (fun (_, e) -> P.Evidence_codec.to_hex e)
        nr.P.Runner.base.P.Runner.raised,
      List.map
        (fun (_, _, v) -> P.Judge.verdict_to_string v)
        nr.P.Runner.base.P.Runner.judged )
  in
  let faults =
    {
      P.Runner.perfect_faults with
      P.Runner.fp_policy =
        N.faulty ~drop:0.2 ~duplicate:0.1 ~delay_max:2 ~reorder:true ();
    }
  in
  List.iter
    (fun beh ->
      let a = run_faulty ~faults beh 1234 and b = run_faulty ~faults beh 1234 in
      check_bool
        (P.Adversary.to_string beh ^ " reproducible")
        true
        (fingerprint a = fingerprint b))
    [ P.Adversary.Honest; P.Adversary.Equivocate; P.Adversary.Refuse_disclosure ]

let timeout_conviction_under_total_silence () =
  (* Cut A off from B only: B gets neither commitment... with the link cut
     there is no commitment either, so use loss on the disclosure path via
     permanent per-link drop.  The stonewalling Suppress_export prover is
     convicted via the Timeout claim even when the opening set never
     arrives. *)
  let faults =
    {
      P.Runner.perfect_faults with
      P.Runner.fp_links = [ ((a_as, b_as), N.faulty ~drop:0.9 ()) ];
      P.Runner.fp_retry_budget = 2;
    }
  in
  (* Scan a few seeds for a schedule where B holds the commitment but the
     beneficiary disclosure was lost: the Timeout path must convict. *)
  let witnessed = ref false in
  for seed = 1 to 30 do
    if not !witnessed then begin
      let nr = run_faulty ~faults P.Adversary.Suppress_export seed in
      let timed_out =
        List.exists
          (fun (_, e) ->
            match e with
            | P.Evidence.Timeout
                { claim = P.Evidence.Missing_export_claim _; _ } ->
                true
            | _ -> false)
          nr.P.Runner.base.P.Runner.raised
      in
      if timed_out then begin
        witnessed := true;
        check_bool "stonewaller convicted on timeout" true
          nr.P.Runner.base.P.Runner.convicted
      end;
      (* Accuracy control on the same schedule. *)
      let honest = run_faulty ~faults P.Adversary.Honest seed in
      check_bool "honest never convicted on this schedule" false
        honest.P.Runner.base.P.Runner.convicted
    end
  done;
  check_bool "found a total-silence schedule" true !witnessed

(* The bytes of both CI soak configurations are pinned.  Their lines count
   retries, timeouts and drops, and Pvr_net decides every fault in send
   order, so a round that reorders, merges or splits its sends changes
   these digests even when every verdict stays the same. *)
let cli_soak_reproducible () =
  let cli = "../bin/pvr_cli.exe" in
  let pin args digest =
    let file = "soak_pin.txt" in
    check_int ("exit 0: soak " ^ args) 0
      (Sys.command (Printf.sprintf "%s soak %s > %s 2>&1" cli args file));
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    Alcotest.(check string) ("stdout sha256: soak " ^ args) digest
      (C.Sha256.digest_hex s)
  in
  pin
    "--seed 1 --rounds 5 --bits 512 --drop 0.15 --duplicate 0.05 --delay 2 \
     --reorder"
    "d94f4e549b4df36e65976a8206438a243d15f2df95901fc7dae8a142b276b99c";
  pin "--seed 4 --rounds 5 --bits 512 --drop 0.3 --budget 4"
    "7a3a0084128cb1803ab75310270f645cb1c0211d56b087faab765f35b3391e98"

let suite =
  [
    Alcotest.test_case "perfect net delivers in order" `Quick
      perfect_delivers_in_order;
    Alcotest.test_case "drop=1 loses everything" `Quick drop_all_loses_everything;
    Alcotest.test_case "duplicate=1 doubles" `Quick duplicate_doubles;
    Alcotest.test_case "partition heals" `Quick partition_heals;
    chaos_preserves_multiset;
    Alcotest.test_case "reliable recovers from drops" `Quick
      reliable_recovers_from_drops;
    Alcotest.test_case "reliable times out under partition" `Quick
      reliable_times_out_under_partition;
    Alcotest.test_case "reliable duplicates reach handler" `Quick
      reliable_duplicates_reach_handler;
    batched_signature_mutations_rejected;
    Alcotest.test_case "timeout evidence roundtrip + nesting" `Quick
      timeout_roundtrip_and_nesting;
    Alcotest.test_case "timeout with zero retries rejected" `Quick
      timeout_zero_retries_rejected;
    gossip_invariant_under_dup_reorder;
    Alcotest.test_case "counters cross-check on a fixed seed" `Quick
      counters_cross_check_fixed_seed;
    Alcotest.test_case "E8 sweep unchanged over zero-fault net" `Quick
      e8_sweep_zero_fault_regression;
    soak_honest_never_convicted;
    soak_detection_when_witnessed;
    Alcotest.test_case "soak: lossy schedule convicts all detectable" `Quick
      soak_retryful_schedule_convicts_all;
    Alcotest.test_case "same seed, same outcome" `Quick same_seed_same_outcome;
    Alcotest.test_case "timeout conviction under total silence" `Quick
      timeout_conviction_under_total_silence;
    Alcotest.test_case "cli: soak output reproducible" `Quick
      cli_soak_reproducible;
  ]
