(* Tests for the pvr core: wire signatures, access control, gossip, the
   §3.3 protocol, the §3.2 ring-signature variant, the generalized graph
   protocol (which runs §3.2's existential operator), the judge, the
   adversary matrix (Detection / Evidence / Accuracy) and the leakage audit
   (Confidentiality). *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg
module C = Pvr_crypto

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prefix0 = G.Prefix.of_string "10.0.0.0/8"
let a_as = asn 1
let b_as = asn 100
let providers = List.init 4 (fun i -> asn (10 + i))

(* One shared keyring for the whole suite: keygen dominates runtime. *)
let keyring =
  lazy
    (P.Keyring.create ~bits:512
       (C.Drbg.of_int_seed 1000)
       (a_as :: b_as :: asn 2 :: providers))

let fresh_rng =
  let counter = ref 0 in
  fun () ->
    incr counter;
    C.Drbg.of_int_seed (7000 + !counter)

let mk_route n len =
  let path =
    List.init len (fun j -> if j = 0 then n else asn (2000 + j))
  in
  let base = G.Route.originate ~asn:n prefix0 in
  { base with G.Route.as_path = path; next_hop = n }

let announce ?(epoch = 1) n len =
  P.Runner.announce_of_route (Lazy.force keyring) ~provider:n ~prover:a_as
    ~epoch (mk_route n len)

(* ---- Keyring / Wire ----------------------------------------------------------- *)

let wire_sign_verify () =
  let kr = Lazy.force keyring in
  let ann = announce (asn 10) 2 in
  check_bool "verifies" true (P.Wire.verify kr ~encode:P.Wire.encode_announce ann);
  check_bool "unknown signer" false
    (P.Wire.verify kr ~encode:P.Wire.encode_announce
       (P.Wire.sign_with
          (P.Keyring.private_key kr a_as)
          ~as_:(asn 9999) ~encode:P.Wire.encode_announce ann.P.Wire.payload))

let wire_forged_identity_rejected () =
  let kr = Lazy.force keyring in
  (* Signed with A's key but claiming to be AS10. *)
  let forged =
    P.Wire.sign_with
      (P.Keyring.private_key kr a_as)
      ~as_:(asn 10) ~encode:P.Wire.encode_announce
      { P.Wire.ann_epoch = 1; ann_to = a_as; ann_route = mk_route (asn 10) 2 }
  in
  check_bool "rejected" false
    (P.Wire.verify kr ~encode:P.Wire.encode_announce forged)

let wire_tamper_rejected () =
  (* [signed] is private, so a verifier cannot even construct a tampered
     record; the binding shows up as: the signature is over the encoded
     payload, so verifying under a different encoding fails. *)
  let kr = Lazy.force keyring in
  let ann = announce (asn 10) 2 in
  check_bool "different encoding rejected" false
    (P.Wire.verify kr
       ~encode:(fun a -> P.Wire.encode_announce a ^ "!")
       ann);
  check_bool "payload-bound signatures differ" true
    ((announce (asn 10) 2).P.Wire.signature
    <> (announce (asn 10) 3).P.Wire.signature)

let keyring_unknown_raises () =
  let kr = Lazy.force keyring in
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (P.Keyring.public_key kr (asn 424242)))

(* ---- Batched signatures (§3.8) ------------------------------------------------ *)

(* RSA-512: a plain signature is exactly this wide. *)
let key_bytes = 64

let ann_payload ?(epoch = 1) ?(to_ = a_as) n len =
  { P.Wire.ann_epoch = epoch; ann_to = to_; ann_route = mk_route n len }

let commit_payload ?(epoch = 1) ?(prefix = prefix0) commitments =
  {
    P.Wire.cmt_epoch = epoch;
    cmt_prefix = prefix;
    cmt_scheme = "min";
    cmt_commitments = commitments;
  }

(* Sign payloads of one kind as one batch, in input order. *)
let batch ~as_ ~encode payloads =
  let drafts = List.map (P.Wire.draft ~as_ ~encode) payloads in
  P.Wire.sign_batch (Lazy.force keyring)
    (List.map (fun d -> P.Wire.Pending d) drafts);
  List.map P.Wire.signed drafts

let wire_batch_of_one_kat () =
  (* Pinned bytes of a plain RSA-512 signature: [Wire.sign] and a batch of
     one must both still produce exactly these. *)
  let expect =
    "81176946d88c46d50bfca94b9d11e6a4a8896dcc16a5ca2fbf1a66d63f81ee07"
    ^ "83adcf39c3c4f6ae43003f34166e28e7a09448d918fbec43abd57e4ebe562788"
  in
  let payload = ann_payload (asn 10) 2 in
  let plain =
    P.Wire.sign (Lazy.force keyring) ~as_:(asn 10)
      ~encode:P.Wire.encode_announce payload
  in
  let one =
    List.hd (batch ~as_:(asn 10) ~encode:P.Wire.encode_announce [ payload ])
  in
  Alcotest.(check string) "Wire.sign" expect (C.Hex.encode plain.P.Wire.signature);
  Alcotest.(check string) "batch of one" expect
    (C.Hex.encode one.P.Wire.signature)

let wire_batched_verify () =
  let kr = Lazy.force keyring in
  let verify = P.Wire.verify kr ~encode:P.Wire.encode_announce in
  List.iter
    (fun (n, depth) ->
      let anns =
        batch ~as_:(asn 10) ~encode:P.Wire.encode_announce
          (List.init n (fun i -> ann_payload (asn 10) (i + 1)))
      in
      List.iter
        (fun (s : P.Wire.announce P.Wire.signed) ->
          check_int
            (Printf.sprintf "width, batch of %d" n)
            (key_bytes + 20 + (32 * depth))
            (String.length s.P.Wire.signature);
          check_bool "verifies" true (verify s))
        anns;
      check_bool "verify_batch" true
        (List.for_all Fun.id
           (P.Wire.verify_batch kr
              (List.map (P.Wire.check ~encode:P.Wire.encode_announce) anns))))
    [ (2, 1); (3, 2); (5, 3); (8, 3); (9, 4) ];
  (* A signature cut for one statement does not cover its batch mates. *)
  match
    batch ~as_:(asn 10) ~encode:P.Wire.encode_announce
      [ ann_payload (asn 10) 1; ann_payload (asn 10) 2 ]
  with
  | [ a; b ] ->
      let swapped =
        P.Wire.decode_signed ~decode:P.Wire.decode_announce
          (C.Codec.encode_list
             [
               P.Wire.encode_announce a.P.Wire.payload;
               C.Bytes_util.be32 10;
               b.P.Wire.signature;
             ])
      in
      check_bool "swapped signature rejected" true
        (match swapped with Some s -> not (verify s) | None -> false)
  | _ -> Alcotest.fail "two signatures expected"

let wire_batch_mixes_kinds () =
  (* One batch may hold a commit and an export, as the engine's second
     signing phase does; both verify, alone and as a same-key batch. *)
  let kr = Lazy.force keyring in
  let n1 = List.hd providers in
  let provenance =
    P.Wire.sign kr ~as_:n1 ~encode:P.Wire.encode_announce (ann_payload n1 2)
  in
  let cd = P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_commit (commit_payload [ "c" ]) in
  let ed =
    P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = mk_route n1 2;
        exp_provenance = Some provenance;
      }
  in
  P.Wire.sign_batch kr [ P.Wire.Pending cd; P.Wire.Pending ed ];
  let c = P.Wire.signed cd and e = P.Wire.signed ed in
  check_int "batched" (key_bytes + 20 + 32) (String.length c.P.Wire.signature);
  check_bool "commit verifies" true
    (P.Wire.verify kr ~encode:P.Wire.encode_commit c);
  check_bool "export verifies" true
    (P.Wire.verify kr ~encode:P.Wire.encode_export e);
  check_bool "same-key batch verifies" true
    (P.Wire.verify_batch kr
       [
         P.Wire.check ~encode:P.Wire.encode_commit c;
         P.Wire.check ~encode:P.Wire.encode_export e;
       ]
    = [ true; true ]);
  Alcotest.check_raises "unsigned draft"
    (Invalid_argument "Wire.signed: draft not signed yet") (fun () ->
      ignore
        (P.Wire.signed
           (P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_commit
              (commit_payload [ "d" ]))))

let accuracy_rebatched_commit_not_equivocation () =
  (* §2.3 Accuracy: one honest commit signed alone and again inside a batch
     carries two different valid signatures.  That is not equivocation. *)
  let kr = Lazy.force keyring in
  let payload = commit_payload [ "x"; "y" ] in
  let alone = P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_commit payload in
  let batched =
    List.hd
      (batch ~as_:a_as ~encode:P.Wire.encode_commit
         [
           payload;
           commit_payload ~prefix:(G.Prefix.of_string "11.0.0.0/8") [ "z" ];
           commit_payload ~epoch:2 [ "w" ];
         ])
  in
  check_bool "signatures differ" true
    (alone.P.Wire.signature <> batched.P.Wire.signature);
  List.iter
    (fun c ->
      check_bool "verifies" true (P.Wire.verify kr ~encode:P.Wire.encode_commit c))
    [ alone; batched ];
  check_bool "verify_batch" true
    (P.Wire.verify_batch kr
       (List.map (P.Wire.check ~encode:P.Wire.encode_commit) [ alone; batched ])
    = [ true; true ]);
  check_bool "equal_commit" true (P.Wire.equal_commit alone batched);
  check_bool "judge: not guilty" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Equivocation { first = alone; second = batched })
    <> P.Judge.Guilty);
  let g = P.Gossip.create kr in
  let n1 = List.hd providers in
  ignore (P.Gossip.receive g ~holder:b_as alone);
  check_bool "gossip: same holder" true
    (P.Gossip.receive g ~holder:b_as batched = None);
  ignore (P.Gossip.receive g ~holder:n1 batched);
  check_bool "gossip: exchange" true (P.Gossip.exchange g b_as n1 = [])

let evidence_batched_transport () =
  (* §2.3 Evidence under the batched shape: evidence whose commit, export
     and witness carry batched signatures still convicts after a trip
     through the evidence codec. *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let n1 = List.hd providers and n2 = List.nth providers 1 in
  let digests bits =
    List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string)) bits
  in
  let other = G.Prefix.of_string "11.0.0.0/8" in
  (* False bit: N1 announced a 2-hop route, A committed b_2 = 0. *)
  let witness =
    List.hd
      (batch ~as_:n1 ~encode:P.Wire.encode_announce
         [ ann_payload n1 2; ann_payload ~to_:b_as n1 2; ann_payload ~epoch:2 n1 3 ])
  in
  let zeros = List.init 4 (fun _ -> C.Commitment.commit_bit rng false) in
  let false_commit =
    List.hd
      (batch ~as_:a_as ~encode:P.Wire.encode_commit
         [ commit_payload (digests zeros); commit_payload ~prefix:other [ "o" ] ])
  in
  (* Non-minimal export: A committed b_1 = 1 yet exported a 3-hop route. *)
  let ones = List.init 4 (fun _ -> C.Commitment.commit_bit rng true) in
  let provenance =
    List.hd
      (batch ~as_:n2 ~encode:P.Wire.encode_announce
         [ ann_payload ~epoch:2 n2 3; ann_payload ~epoch:2 ~to_:b_as n2 3 ])
  in
  let cd =
    P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_commit
      (commit_payload ~epoch:2 (digests ones))
  in
  let ed =
    P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 2;
        exp_to = b_as;
        exp_route = mk_route n2 3;
        exp_provenance = Some provenance;
      }
  in
  let od =
    P.Wire.draft ~as_:a_as ~encode:P.Wire.encode_commit
      (commit_payload ~epoch:2 ~prefix:other [ "o" ])
  in
  P.Wire.sign_batch kr [ P.Wire.Pending cd; P.Wire.Pending ed; P.Wire.Pending od ];
  let evidence =
    [
      P.Evidence.False_bit
        {
          commit = false_commit;
          index = 2;
          opening = snd (List.nth zeros 1);
          witness;
        };
      P.Evidence.Nonminimal_export
        {
          commit = P.Wire.signed cd;
          export = P.Wire.signed ed;
          index = 1;
          opening = snd (List.hd ones);
        };
    ]
  in
  List.iter
    (fun s -> check_bool "batched" true (String.length s > key_bytes))
    [
      witness.P.Wire.signature;
      false_commit.P.Wire.signature;
      (P.Wire.signed ed).P.Wire.signature;
    ];
  List.iter
    (fun e ->
      let kind = P.Evidence.kind e in
      check_bool ("guilty before transport: " ^ kind) true
        (P.Judge.evaluate_offline kr e = P.Judge.Guilty);
      match P.Evidence_codec.decode (P.Evidence_codec.encode e) with
      | None -> Alcotest.failf "decode failed for %s" kind
      | Some e' ->
          check_bool ("guilty after transport: " ^ kind) true
            (P.Judge.evaluate_offline kr e' = P.Judge.Guilty))
    evidence

let confidentiality_batched_siblings_hidden () =
  (* A sibling digest must not let a verifier confirm a guessed route: no
     sibling equals the unsalted leaf hash of any message in the batch. *)
  let payloads = List.init 8 (fun i -> ann_payload (asn 10) (i + 1)) in
  let signed = batch ~as_:(asn 10) ~encode:P.Wire.encode_announce payloads in
  let unsalted =
    List.concat_map
      (fun p ->
        let enc = P.Wire.encode_announce p in
        let msg = "pvr-signed-v1:" ^ enc in
        List.map C.Sha256.digest [ msg; "\x00" ^ msg; enc; "\x00" ^ enc ])
      payloads
  in
  let indices =
    List.map
      (fun (s : P.Wire.announce P.Wire.signed) ->
        let sg = s.P.Wire.signature in
        check_int "depth 3" (key_bytes + 20 + 96) (String.length sg);
        for l = 0 to 2 do
          check_bool "sibling is salted" false
            (List.mem (String.sub sg (key_bytes + 20 + (32 * l)) 32) unsalted)
        done;
        C.Bytes_util.read_be32 sg (key_bytes + 16))
      signed
  in
  check_bool "indices are a permutation" true
    (List.sort compare indices = List.init 8 Fun.id)

(* ---- Access control ------------------------------------------------------------ *)

let alpha_figure1 () =
  let alpha = P.Access_control.figure1 ~beneficiary:b_as ~providers in
  let n1 = List.hd providers in
  check_bool "Ni sees own input" true
    (P.Access_control.permits_vertex alpha ~viewer:n1 (R.Promise.input_var n1));
  check_bool "Ni cannot see Nj's input" false
    (P.Access_control.permits_vertex alpha ~viewer:n1
       (R.Promise.input_var (List.nth providers 1)));
  check_bool "B sees output" true
    (P.Access_control.permits_vertex alpha ~viewer:b_as
       (R.Promise.output_var b_as));
  check_bool "Ni cannot see output" false
    (P.Access_control.permits_vertex alpha ~viewer:n1
       (R.Promise.output_var b_as));
  check_bool "everyone sees min" true
    (P.Access_control.permits_vertex alpha ~viewer:n1 "op:min"
    && P.Access_control.permits_vertex alpha ~viewer:b_as "op:min")

let alpha_components_independent () =
  let alpha =
    P.Access_control.allow_component P.Access_control.deny_all ~viewer:b_as
      "v" P.Access_control.Payload
  in
  check_bool "payload yes" true
    (P.Access_control.permits alpha ~viewer:b_as "v" P.Access_control.Payload);
  check_bool "preds no" false
    (P.Access_control.permits alpha ~viewer:b_as "v" P.Access_control.Preds);
  check_bool "vertex (all three) no" false
    (P.Access_control.permits_vertex alpha ~viewer:b_as "v")

let alpha_for_promise_verifiable () =
  (* The minimal α from for_promise passes the §4 minimum-access check. *)
  let promise = R.Promise.Shortest_from providers in
  let g = R.Promise.reference_rfg promise ~beneficiary:b_as ~neighbors:providers in
  let alpha = P.Access_control.for_promise promise ~beneficiary:b_as ~neighbors:providers in
  let issues =
    R.Static_check.verifiable_under g ~promise ~beneficiary:b_as
      ~neighbors:providers
      ~visible:(fun ~viewer v -> P.Access_control.permits_vertex alpha ~viewer v)
  in
  check_int "verifiable" 0 (List.length issues)

(* ---- Gossip --------------------------------------------------------------------- *)

let sign_commit ?(epoch = 1) ?(scheme = "min") commitments =
  P.Wire.sign (Lazy.force keyring) ~as_:a_as ~encode:P.Wire.encode_commit
    {
      P.Wire.cmt_epoch = epoch;
      cmt_prefix = prefix0;
      cmt_scheme = scheme;
      cmt_commitments = commitments;
    }

let gossip_consistent_ok () =
  let kr = Lazy.force keyring in
  let g = P.Gossip.create kr in
  let c = sign_commit [ "x" ] in
  check_bool "first receive" true (P.Gossip.receive g ~holder:b_as c = None);
  check_bool "same again" true (P.Gossip.receive g ~holder:b_as c = None);
  List.iter
    (fun n -> ignore (P.Gossip.receive g ~holder:n c))
    providers;
  check_int "clean round" 0
    (List.length
       (P.Gossip.run_round g ~edges:(P.Gossip.clique_edges (b_as :: providers))))

let gossip_detects_equivocation () =
  let kr = Lazy.force keyring in
  let g = P.Gossip.create kr in
  let c1 = sign_commit [ "x" ] and c2 = sign_commit [ "y" ] in
  ignore (P.Gossip.receive g ~holder:b_as c1);
  let n1 = List.hd providers in
  ignore (P.Gossip.receive g ~holder:n1 c2);
  let evs = P.Gossip.exchange g b_as n1 in
  check_bool "equivocation surfaced" true
    (List.exists (function P.Evidence.Equivocation _ -> true | _ -> false) evs)

let gossip_different_epochs_no_conflict () =
  let kr = Lazy.force keyring in
  let g = P.Gossip.create kr in
  ignore (P.Gossip.receive g ~holder:b_as (sign_commit ~epoch:1 [ "x" ]));
  check_bool "different epoch ok" true
    (P.Gossip.receive g ~holder:b_as (sign_commit ~epoch:2 [ "y" ]) = None)

let gossip_ring_misses_pairwise_split () =
  (* With ring gossip, equivocation between two non-adjacent holders can
     escape a single round — the E8 ablation scenario. *)
  let kr = Lazy.force keyring in
  let members = b_as :: providers in
  let g = P.Gossip.create kr in
  let c1 = sign_commit [ "x" ] and c2 = sign_commit [ "y" ] in
  (* Give the conflicting pair to holders that are two hops apart. *)
  (match members with
  | h1 :: _ :: h3 :: _ ->
      ignore (P.Gossip.receive g ~holder:h1 c1);
      ignore (P.Gossip.receive g ~holder:h3 c2)
  | _ -> Alcotest.fail "need members");
  let ring = P.Gossip.ring_edges members in
  let one_round = P.Gossip.run_round g ~edges:ring in
  (* After enough rounds it must surface. *)
  let rec until_found k acc =
    if acc <> [] || k = 0 then acc
    else until_found (k - 1) (P.Gossip.run_round g ~edges:ring)
  in
  let eventually = until_found 5 one_round in
  check_bool "eventually detected on ring" true (eventually <> [])

let gossip_invalid_signature_ignored () =
  let kr = Lazy.force keyring in
  let g = P.Gossip.create kr in
  (* Signed with the wrong private key: verification must fail. *)
  let bad =
    P.Wire.sign_with
      (P.Keyring.private_key kr (asn 2))
      ~as_:a_as ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "min";
        cmt_commitments = [ "x" ];
      }
  in
  check_bool "ignored" true (P.Gossip.receive g ~holder:b_as bad = None);
  check_bool "not stored" true
    (P.Gossip.view g ~holder:b_as ~signer:a_as ~epoch:1 ~prefix:prefix0
       ~scheme:"min"
    = None)

(* ---- §3.2 link-state variant ------------------------------------------------------- *)

let exists_ring_variant () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let ring = providers in
  let s =
    P.Proto_common.ring_announce rng kr ~ring ~signer:(List.nth providers 2)
      ~epoch:1 ~prefix:prefix0
  in
  check_bool "ring verifies" true
    (P.Proto_common.ring_check kr ~ring ~epoch:1 ~prefix:prefix0 s);
  check_bool "wrong epoch" false
    (P.Proto_common.ring_check kr ~ring ~epoch:2 ~prefix:prefix0 s);
  check_bool "wrong ring" false
    (P.Proto_common.ring_check kr ~ring:(b_as :: List.tl ring) ~epoch:1
       ~prefix:prefix0 s)

(* ---- Proto_min -------------------------------------------------------------------- *)

let min_honest_clean () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let inputs = List.mapi (fun i n -> announce n (i + 1)) providers in
  let out =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs
  in
  check_int "B clean" 0
    (List.length
       (P.Proto_min.check_beneficiary kr ~me:b_as ~commit:(P.Runner.commit_for out b_as)
          ~disclosure:(P.Runner.beneficiary_disclosure out)));
  List.iter
    (fun (ann : P.Wire.announce P.Wire.signed) ->
      let d =
        Option.join (List.assoc_opt ann.P.Wire.signer (P.Runner.neighbor_disclosures out))
      in
      check_int "Ni clean" 0
        (List.length
           (P.Proto_min.check_neighbor kr ~me:ann.P.Wire.signer
              ~my_announce:ann ~commit:(P.Runner.commit_for out b_as) ~disclosure:d)))
    inputs;
  match (P.Runner.beneficiary_disclosure out).bd_export with
  | Some e ->
      check_int "shortest exported" 1
        (G.Route.path_length e.P.Wire.payload.P.Wire.exp_route)
  | None -> Alcotest.fail "expected export"

let min_commitment_count () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let out =
    P.Runner.prove ~max_path_len:16 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs:[ announce (asn 10) 3 ]
  in
  check_int "k commitments" 16
    (List.length (P.Runner.commit_for out b_as).P.Wire.payload.P.Wire.cmt_commitments)

let min_ignores_invalid_inputs () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  (* Wrong epoch and wrong recipient announcements must be discarded. *)
  let wrong_epoch = announce ~epoch:9 (asn 10) 1 in
  let ok = announce (asn 11) 3 in
  let out =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs:[ wrong_epoch; ok ]
  in
  match (P.Runner.beneficiary_disclosure out).bd_export with
  | Some e ->
      check_int "only the valid input counts" 3
        (G.Route.path_length e.P.Wire.payload.P.Wire.exp_route)
  | None -> Alcotest.fail "expected export"

let min_paths_beyond_k_ignored () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let out =
    P.Runner.prove ~max_path_len:4 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs:[ announce (asn 10) 9 ]
  in
  check_bool "no admissible input, no export" true
    ((P.Runner.beneficiary_disclosure out).bd_export = None)

(* Property: over random scenarios, the honest §3.3 run is clean and exports
   the minimum. *)
let min_honest_property =
  qtest "honest min rounds are clean and minimal"
    QCheck2.Gen.(list_size (int_range 0 4) (int_range 1 8))
    (fun lens ->
      let kr = Lazy.force keyring in
      let rng = fresh_rng () in
      let inputs = List.mapi (fun i l -> announce (List.nth providers i) l) lens in
      let out =
        P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as
          ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~inputs
      in
      let b_clean =
        P.Proto_min.check_beneficiary kr ~me:b_as ~commit:(P.Runner.commit_for out b_as)
          ~disclosure:(P.Runner.beneficiary_disclosure out)
        = []
      in
      let ns_clean =
        List.for_all
          (fun (ann : P.Wire.announce P.Wire.signed) ->
            P.Proto_min.check_neighbor kr ~me:ann.P.Wire.signer
              ~my_announce:ann ~commit:(P.Runner.commit_for out b_as)
              ~disclosure:
                (Option.join
                   (List.assoc_opt ann.P.Wire.signer (P.Runner.neighbor_disclosures out)))
            = [])
          inputs
      in
      let minimal =
        match ((P.Runner.beneficiary_disclosure out).bd_export, lens) with
        | None, [] -> true
        | Some e, _ :: _ ->
            G.Route.path_length e.P.Wire.payload.P.Wire.exp_route
            = List.fold_left min max_int lens
        | _ -> false
      in
      b_clean && ns_clean && minimal)

(* ---- Adversary matrix: Detection + Evidence + Accuracy --------------------------- *)

let run_matrix behaviour =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let routes = List.mapi (fun i n -> (n, mk_route n (i + 2))) providers in
  P.Runner.min_round ~max_path_len:8 behaviour rng kr ~prover:a_as
    ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes

let matrix_honest_accuracy () =
  let r = run_matrix P.Adversary.Honest in
  check_bool "no detection" false r.detected;
  check_bool "no conviction" false r.convicted

let matrix_all_behaviours_convicted () =
  List.iter
    (fun beh ->
      if beh <> P.Adversary.Honest then begin
        let r = run_matrix beh in
        check_bool (P.Adversary.to_string beh ^ " detected") true r.detected;
        check_bool (P.Adversary.to_string beh ^ " convicted") true r.convicted
      end)
    P.Adversary.all

let matrix_detectors_as_expected () =
  let inputs = List.mapi (fun i n -> (n, i + 2)) providers in
  List.iter
    (fun beh ->
      let r = run_matrix beh in
      let expected = P.Adversary.expected_detectors beh ~inputs in
      List.iter
        (fun d ->
          check_bool
            (Printf.sprintf "%s: expected detector present"
               (P.Adversary.to_string beh))
            true
            (List.exists (fun (who, _) -> who = d) r.raised))
        expected)
    P.Adversary.all

let matrix_no_false_accusations () =
  (* Whatever evidence honest parties raise against a *misbehaving* A, none
     of it may be judged against an *honest* A: re-judge honest-run
     evidence (there is none) and check exoneration paths via a fabricated
     claim. *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let routes = List.mapi (fun i n -> (n, mk_route n (i + 2))) providers in
  let announces =
    List.map
      (fun (n, r) ->
        P.Runner.announce_of_route kr ~provider:n ~prover:a_as ~epoch:1 r)
      routes
  in
  let run =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as
      ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~inputs:announces
  in
  (* B falsely claims it got nothing. *)
  let claim =
    P.Evidence.Missing_export_claim
      {
        commit = P.Runner.commit_for run b_as;
        openings =
          List.map
            (fun (i, o) -> (i, o))
            (P.Runner.beneficiary_disclosure run).bd_openings;
        claimant = b_as;
      }
  in
  check_bool "honest A exonerated" true
    (P.Judge.evaluate kr ~respond:(P.Runner.respond run) claim
    = P.Judge.Exonerated)

let matrix_stubborn_omission_guilty () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let announces = [ announce (asn 10) 2 ] in
  let run =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as
      ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~inputs:announces
  in
  let claim =
    P.Evidence.Missing_export_claim
      {
        commit = P.Runner.commit_for run b_as;
        openings = (P.Runner.beneficiary_disclosure run).bd_openings;
        claimant = b_as;
      }
  in
  check_bool "no response -> guilty" true
    (P.Judge.evaluate_offline kr claim = P.Judge.Guilty)

let judge_rejects_cross_scheme_confusion () =
  (* A False_bit framed against a min commitment with a too-long witness, or
     against a retired "exists" commitment, must be Rejected: the judge
     never convicts outside the scheme's semantics. *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let short = announce (asn 10) 2 in
  let long = announce (asn 11) 6 in
  let out =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs:[ short ]
  in
  (* Bits encode shortest=2, so b_1 = 0 truthfully.  A witness of length 6
     does NOT force b_1; evidence claiming so is bogus. *)
  let o1 = List.assoc 1 (P.Runner.beneficiary_disclosure out).bd_openings in
  let bogus =
    P.Evidence.False_bit
      { commit = P.Runner.commit_for out b_as; index = 1; opening = o1; witness = long }
  in
  check_bool "long witness cannot frame a low bit" true
    (P.Judge.evaluate_offline kr bogus = P.Judge.Rejected);
  (* No round commits under "exists" (§3.2 runs as a graph round), so a
     validly signed "exists" commit whose one bit opens to 0 convicts
     nobody, whatever the witness. *)
  let c, o = C.Commitment.commit_bit rng false in
  let exists_commit =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "exists";
        cmt_commitments = [ (c :> string) ];
      }
  in
  check_bool "exists false bit rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.False_bit
          { commit = exists_commit; index = 1; opening = o; witness = short })
    = P.Judge.Rejected);
  check_bool "exists missing disclosure rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Missing_disclosure_claim
          { commit = exists_commit; announce = short; claimant = asn 10 })
    = P.Judge.Rejected)

let min_tie_between_equal_routes () =
  (* Two providers announce equal-length routes: the export must be one of
     them and everyone stays clean. *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let inputs = [ announce (asn 10) 3; announce (asn 11) 3 ] in
  let out =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs
  in
  check_int "B clean on tie" 0
    (List.length
       (P.Proto_min.check_beneficiary kr ~me:b_as ~commit:(P.Runner.commit_for out b_as)
          ~disclosure:(P.Runner.beneficiary_disclosure out)));
  match (P.Runner.beneficiary_disclosure out).bd_export with
  | Some e ->
      check_int "tied length exported" 3
        (G.Route.path_length e.P.Wire.payload.P.Wire.exp_route)
  | None -> Alcotest.fail "expected export"

(* An honest k = 4 round over one 2-hop input, and B's check of an export
   A signed in place of its honest one. *)
let min_round_k4 () =
  P.Runner.prove ~max_path_len:4 (fresh_rng ()) (Lazy.force keyring)
    ~prover:a_as ~beneficiary:b_as ~epoch:1 ~prefix:prefix0
    ~inputs:[ announce (asn 10) 2 ]

let check_resigned_export (out : P.Runner.round) f =
  let kr = Lazy.force keyring in
  let export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      (f (Option.get out.export).P.Wire.payload)
  in
  P.Proto_min.check_beneficiary kr ~me:b_as
    ~commit:(P.Runner.commit_for out b_as)
    ~disclosure:
      { (P.Runner.beneficiary_disclosure out) with bd_export = Some export }

(* A route longer than k, with valid provenance, under a set b_2: the bits
   cannot express its length, but b_2 = 1 already refutes it. *)
let min_export_beyond_k_nonminimal () =
  let out = min_round_k4 () in
  let long = announce (asn 11) 6 in
  match
    check_resigned_export out (fun p ->
        {
          p with
          P.Wire.exp_route = long.P.Wire.payload.P.Wire.ann_route;
          exp_provenance = Some long;
        })
  with
  | [ (P.Evidence.Nonminimal_export { index = 2; _ } as e) ] ->
      check_bool "guilty" true
        (P.Judge.evaluate_offline (Lazy.force keyring) e = P.Judge.Guilty)
  | _ -> Alcotest.fail "one Nonminimal_export at b_2 expected"

(* An export addressed to another AS is no export to B: B claims the
   omission, which A's silence convicts and its real export answers. *)
let min_misdirected_export_claimed () =
  let kr = Lazy.force keyring in
  let out = min_round_k4 () in
  match check_resigned_export out (fun p -> { p with P.Wire.exp_to = asn 2 }) with
  | [ (P.Evidence.Missing_export_claim _ as claim) ] ->
      check_bool "silence guilty" true
        (P.Judge.evaluate_offline kr claim = P.Judge.Guilty);
      check_bool "real export exonerates" true
        (P.Judge.evaluate kr ~respond:(P.Runner.respond out) claim
        = P.Judge.Exonerated);
      let real = Option.get out.export in
      let unproven =
        P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
          { real.P.Wire.payload with exp_provenance = None }
      in
      check_bool "export without provenance guilty" true
        (P.Judge.evaluate kr
           ~respond:(fun ~accused:_ _ -> P.Judge.Export_response unproven)
           claim
        = P.Judge.Guilty);
      (* B saw b_2 = 1: a 6-hop export does not answer the claim. *)
      let long = announce (asn 11) 6 in
      let longer =
        P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
          {
            P.Wire.exp_epoch = 1;
            exp_to = b_as;
            exp_route = long.P.Wire.payload.P.Wire.ann_route;
            exp_provenance = Some long;
          }
      in
      check_bool "longer export guilty" true
        (P.Judge.evaluate kr
           ~respond:(fun ~accused:_ _ -> P.Judge.Export_response longer)
           claim
        = P.Judge.Guilty)
  | _ -> Alcotest.fail "one Missing_export_claim expected"

(* ---- Graph round helpers ---------------------------------------------------- *)

let graph_round promise routes =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  P.Runner.graph_round ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
    ~epoch:1 ~prefix:prefix0 ~promise ~routes

(* An honest graph draft over [routes]: [promise]'s reference graph and
   minimal α over [neighbors] (default: the routes' providers). *)
let graph_draft ?neighbors ?(beneficiary = b_as) ?(prefix = prefix0) promise
    routes =
  let neighbors = Option.value neighbors ~default:(List.map fst routes) in
  P.Proto_graph.draft ~max_path_len:8 (fresh_rng ()) ~prover:a_as
    ~beneficiary ~epoch:1 ~prefix
    ~rfg:(R.Promise.reference_rfg promise ~beneficiary ~neighbors)
    ~alpha:(P.Access_control.for_promise promise ~beneficiary ~neighbors)
    ~inputs:routes

(* A graph draft signed by the shared round's sign phase. *)
let graph_sign d =
  (P.Runner.sign (Lazy.force keyring)
     [| (P.Runner.memo (), P.Runner.Graph d) |]).(0)

(* Accusations against an honest A, each by one or two neighbours holding
   only what honest signed rounds sent them. *)
let graph_framings () =
  let route n len = (n, mk_route n len) in
  let signed ?beneficiary ?prefix promise routes =
    let d = graph_draft ?beneficiary ?prefix promise routes in
    (d, graph_sign d)
  in
  let view ?role d viewer =
    P.Proto_graph.disclose ?role d ~alpha:d.P.Proto_graph.dr_alpha ~viewer
  in
  let violation (r : P.Runner.round) ds offence =
    P.Evidence.Graph_violation { commit = r.commit; disclosures = ds; offence }
  in
  let announce_of (r : P.Runner.round) n = List.assoc n r.announces in
  let from_10_11 = R.Promise.Shortest_from [ asn 10; asn 11 ] in
  let fig2 =
    R.Promise.Prefer_unless_shorter
      { fallback = [ asn 11; asn 12 ]; override = asn 10 }
  in
  let d, r = signed from_10_11 [ route (asn 10) 2; route (asn 11) 3 ] in
  let wrong_var =
    violation r
      (view ~role:(`Provider 3) d (asn 11))
      (P.Evidence.Wrong_input_value
         { var = R.Promise.input_var (asn 11); witness = announce_of r (asn 10) })
  in
  let b_view = view d b_as in
  (* AS10 and B collude with AS10's genuine announces of another epoch,
     which A never had to admit in this one. *)
  let only id =
    List.filter (fun (v : P.Proto_graph.disclosure) -> v.gd_vertex = id)
  in
  let as10_var =
    only (R.Promise.input_var (asn 10)) (view ~role:(`Provider 2) d (asn 10))
  in
  let stale_input =
    violation r as10_var
      (P.Evidence.Wrong_input_value
         {
           var = R.Promise.input_var (asn 10);
           witness = announce ~epoch:2 (asn 10) 3;
         })
  in
  let stale_bit =
    violation r
      (as10_var @ only "op:min" b_view)
      (P.Evidence.False_evidence_bit
         { op = "op:min"; index = 1; witness = announce ~epoch:2 (asn 10) 1 })
  in
  let not_committed export =
    violation r b_view
      (P.Evidence.Export_not_committed
         { out_var = R.Promise.output_var b_as; export })
  in
  (* B withholds some of op:min's bit openings, so the bits left seem to
     promise no route, or a longer one than the committed output. *)
  let withheld keep =
    violation r
      (List.map
         (fun (v : P.Proto_graph.disclosure) ->
           if v.gd_vertex = "op:min" then
             { v with gd_bits = List.filter (fun (i, _) -> keep i) v.gd_bits }
           else v)
         b_view)
      (P.Evidence.Output_evidence_mismatch
         { out_var = R.Promise.output_var b_as; op = "op:min"; detail = "" })
  in
  let prefix1 = G.Prefix.of_string "11.0.0.0/8" in
  let export_of (_, (r : P.Runner.round)) = Option.get r.export in
  let other_prefix =
    export_of
      (signed ~prefix:prefix1 from_10_11
         [ (asn 10, { (mk_route (asn 10) 2) with G.Route.prefix = prefix1 }) ])
  in
  let other_neighbour =
    export_of (signed ~beneficiary:(asn 2) from_10_11 [ route (asn 11) 3 ])
  in
  let d, r =
    signed fig2 [ route (asn 10) 2; route (asn 11) 3; route (asn 12) 4 ]
  in
  let unconsumed_bit =
    violation r
      (view ~role:(`Provider 2) d (asn 10))
      (P.Evidence.False_evidence_bit
         { op = "op:min"; index = 2; witness = announce_of r (asn 10) })
  in
  let d, r = signed fig2 [ route (asn 10) 2 ] in
  let foreign_producer =
    violation r (view d b_as)
      (P.Evidence.Output_evidence_mismatch
         {
           out_var = R.Promise.output_var b_as;
           op = "op:min";
           detail = "evidence says no route, output is non-empty";
         })
  in
  [
    ("another provider's witness rejected", wrong_var);
    ("bit of an operator the witness does not feed rejected", unconsumed_bit);
    ("operator that does not produce the output rejected", foreign_producer);
    ("export for another prefix rejected", not_committed other_prefix);
    ("export to another neighbour rejected", not_committed other_neighbour);
    ("set bits withheld rejected", withheld (fun i -> i = 1));
    ("shortest set bit withheld rejected", withheld (fun i -> i <> 2));
    ("input of another epoch rejected", stale_input);
    ("bit forced by another epoch's input rejected", stale_bit);
  ]

(* ---- Proto_no_shorter (§2 promise 4) helpers ------------------------------ *)

let beneficiaries3 = [ b_as; asn 2; List.hd providers ]

(* [lens]: optional export length per beneficiary, in beneficiaries3 order.
   The input route A chose for each is announced by provider N1 or N2. *)
let noshorter_exports ?(epoch = 1) ?(prefix = prefix0) lens =
  List.concat
    (List.map2
       (fun m len ->
         match len with
         | None -> []
         | Some l ->
             let n = List.nth providers (1 + (l mod 2)) in
             [
               ( m,
                 P.Runner.announce_of_route (Lazy.force keyring) ~provider:n
                   ~prover:a_as ~epoch
                   { (mk_route n l) with G.Route.prefix } );
             ])
       beneficiaries3 lens)

let noshorter_prove ?(epoch = 1) ?(prefix = prefix0) exports =
  P.Proto_no_shorter.prove ~max_path_len:6 (fresh_rng ()) (Lazy.force keyring)
    ~prover:a_as ~beneficiaries:beneficiaries3 ~epoch ~prefix ~exports

let noshorter_run ?epoch ?prefix lens =
  noshorter_prove ?epoch ?prefix (noshorter_exports ?epoch ?prefix lens)

let noshorter_check out m =
  P.Proto_no_shorter.check_beneficiary (Lazy.force keyring) ~me:m
    ~commit:out.P.Proto_no_shorter.commit
    ~disclosure:(List.assoc m out.P.Proto_no_shorter.per_beneficiary)

(* Promise-4 evidence a Byzantine neighbour assembles from honest signed
   promise-4 rounds: genuine openings paired with statements the offence
   does not name. *)
let noshorter_framings () =
  let to_b (out : P.Proto_no_shorter.prover_output) =
    List.assoc b_as out.per_beneficiary
  in
  let opening out i = List.assoc i (to_b out).bd_openings in
  let export out = Option.get (to_b out).bd_export in
  let three = noshorter_run [ Some 3; Some 3; None ] in
  let unexported_input =
    P.Evidence.False_bit
      {
        commit = three.commit;
        index = 1;
        opening = opening three 1;
        witness = announce (asn 11) 1;
      }
  in
  (* Honest two-hop rounds of another epoch and of another prefix. *)
  let others =
    [
      ("epoch", noshorter_run ~epoch:2 [ Some 2; Some 2; None ]);
      ( "prefix",
        noshorter_run ~prefix:(G.Prefix.of_string "11.0.0.0/8")
          [ Some 2; Some 2; None ] );
    ]
  in
  let below_own_length =
    P.Evidence.Own_vector_mismatch
      {
        commit = three.commit;
        my_export = export three;
        bit_index = 2;
        opening = opening three 2;
      }
  in
  ("admitted input A never exported rejected as a false-bit witness",
   unexported_input)
  :: ("b_2 = 0 against A's own 3-hop export rejected", below_own_length)
  :: List.concat_map
       (fun (other_what, other) ->
         [
           ( "b_2 = 0 against a 2-hop export of another " ^ other_what
             ^ " rejected",
             P.Evidence.Own_vector_mismatch
               {
                 commit = three.commit;
                 my_export = export other;
                 bit_index = 2;
                 opening = opening three 2;
               } );
           ( "b_2 = 1 of another " ^ other_what
             ^ " against a 3-hop export rejected",
             P.Evidence.Nonminimal_export
               {
                 commit = other.commit;
                 export = export three;
                 index = 2;
                 opening = opening other 2;
               } );
         ])
       others

let judge_rejects_fabrications () =
  (* Evidence whose internals do not hold up must be Rejected, protecting an
     innocent A (Accuracy). *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let inputs = [ announce (asn 10) 2; announce (asn 11) 3 ] in
  let out =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs
  in
  let some_opening = List.assoc 2 (P.Runner.beneficiary_disclosure out).bd_openings in
  (* Claim bit 2 is 0 — but it opens to 1, so the evidence is bogus. *)
  let bogus =
    P.Evidence.False_bit
      {
        commit = P.Runner.commit_for out b_as;
        index = 2;
        opening = some_opening;
        witness = List.hd inputs;
      }
  in
  check_bool "bogus false-bit rejected" true
    (P.Judge.evaluate_offline kr bogus = P.Judge.Rejected);
  (* Equivocation evidence with twice the same message is no evidence. *)
  let commit = P.Runner.commit_for out b_as in
  let dup = P.Evidence.Equivocation { first = commit; second = commit } in
  check_bool "duplicate commit rejected" true
    (P.Judge.evaluate_offline kr dup = P.Judge.Rejected);
  (* Graph evidence a Byzantine neighbour assembles from the bytes of
     honest signed rounds: genuine statements paired with ones the offence
     does not name. *)
  List.iter
    (fun (name, e) ->
      check_bool name true (P.Judge.evaluate_offline kr e = P.Judge.Rejected))
    (graph_framings ());
  (* Promise 4 owes no beneficiary an export: an omission claim against a
     "noshorter" commit convicts nobody, bare or timed out. *)
  let p4 = noshorter_run [ Some 3; None; Some 3 ] in
  let unexported =
    P.Evidence.Missing_export_claim
      { commit = p4.P.Proto_no_shorter.commit; openings = []; claimant = asn 2 }
  in
  check_bool "promise-4 omission claim rejected" true
    (P.Judge.evaluate_offline kr unexported = P.Judge.Rejected);
  check_bool "promise-4 timed-out omission claim rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Timeout { claim = unexported; retries = 1 })
    = P.Judge.Rejected);
  List.iter
    (fun (name, e) ->
      check_bool name true (P.Judge.evaluate_offline kr e = P.Judge.Rejected))
    (noshorter_framings ());
  (* A set bit at the export's own length proves nothing against it. *)
  let honest_export = Option.get (P.Runner.beneficiary_disclosure out).bd_export in
  check_bool "set bit at the export's length rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Nonminimal_export
          { commit; export = honest_export; index = 2; opening = some_opening })
    = P.Judge.Rejected);
  (* B's own key signing a commit in A's name: its bits contradict, but A
     never signed them. *)
  let set, set_o = C.Commitment.commit_bit rng true in
  let unset, unset_o = C.Commitment.commit_bit rng false in
  let forged =
    P.Wire.sign_with (P.Keyring.private_key kr b_as) ~as_:a_as
      ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "min";
        cmt_commitments = [ (set :> string); (unset :> string) ];
      }
  in
  check_bool "commit forged in A's name rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Non_monotonic_bits
          {
            commit = forged;
            set_index = 1;
            set_opening = set_o;
            unset_index = 2;
            unset_opening = unset_o;
          })
    = P.Judge.Rejected);
  (* A keeps §3.3 towards B over a shortest input of 3 hops (b_2 = 0) and
     exports 2 hops to AS2 under promise 4: only a promise-4 commit is
     bound to A's own exports. *)
  let min3 =
    P.Runner.prove ~max_path_len:6 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0 ~inputs:[ announce (asn 11) 3 ]
  in
  let p4_two = noshorter_run [ None; Some 2; Some 2 ] in
  check_bool "min commit's b_2 = 0 against a 2-hop promise-4 export rejected"
    true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Own_vector_mismatch
          {
            commit = P.Runner.commit_for min3 b_as;
            my_export =
              Option.get (List.assoc (asn 2) p4_two.per_beneficiary).bd_export;
            bit_index = 2;
            opening =
              List.assoc 2 (P.Runner.beneficiary_disclosure min3).bd_openings;
          })
    = P.Judge.Rejected);
  check_bool "input of another epoch as false-bit witness rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.False_bit
          {
            commit;
            index = 1;
            opening =
              List.assoc 1 (P.Runner.beneficiary_disclosure out).bd_openings;
            witness = announce ~epoch:2 (asn 10) 1;
          })
    = P.Judge.Rejected);
  check_bool "export forged in A's name rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Bad_provenance
          {
            export =
              P.Wire.sign_with (P.Keyring.private_key kr b_as) ~as_:a_as
                ~encode:P.Wire.encode_export
                { honest_export.P.Wire.payload with exp_provenance = None };
          })
    = P.Judge.Rejected);
  (* A round with no input opens every bit to 0; A's export of another
     epoch is no export of this round. *)
  let empty =
    P.Runner.prove ~max_path_len:8 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:2 ~prefix:prefix0 ~inputs:[]
  in
  check_bool "all-zero bits against an export of another epoch rejected" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Unsupported_export
          {
            commit = P.Runner.commit_for empty b_as;
            export = honest_export;
            openings = (P.Runner.beneficiary_disclosure empty).bd_openings;
          })
    = P.Judge.Rejected);
  (* A known gap, pinned so that closing it flips this check: the judge
     binds no export to a scheme or a beneficiary.  A keeps §3.3 towards
     peer B (inputs of 2 and 3 hops, so b_2 = 1) and promise 4 among its
     customers (3 hops each); B's b_2 opening against AS2's promise-4
     export for the same epoch and prefix convicts.  Binding them needs a
     wire change. *)
  let min_round =
    P.Runner.prove ~max_path_len:6 rng kr ~prover:a_as ~beneficiary:b_as
      ~epoch:1 ~prefix:prefix0
      ~inputs:[ announce (asn 11) 2; announce (asn 12) 3 ]
  in
  let customers = noshorter_run [ None; Some 3; Some 3 ] in
  check_bool "probe: min commit against a promise-4 export convicts" true
    (P.Judge.evaluate_offline kr
       (P.Evidence.Nonminimal_export
          {
            commit = P.Runner.commit_for min_round b_as;
            export =
              Option.get
                (List.assoc (asn 2) customers.per_beneficiary).bd_export;
            index = 2;
            opening =
              List.assoc 2
                (P.Runner.beneficiary_disclosure min_round).bd_openings;
          })
    = P.Judge.Guilty)

(* Evidence whose two signatures by the accused are genuine ones multiplied
   by 2 and 2^-1 mod n.  Neither verifies alone, while their product equals
   the genuine pair's, so a product screen over same-key signatures would
   accept both.  The judge must not convict on it. *)
let judge_cancelling_forgery_not_guilty () =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let set, opening = C.Commitment.commit_bit rng true in
  let unset, _ = C.Commitment.commit_bit rng false in
  let commit =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_commit
      (commit_payload [ (set :> string); (unset :> string) ])
  in
  let export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = mk_route (asn 10) 3;
        exp_provenance = None;
      }
  in
  let evidence commit export =
    P.Evidence.Nonminimal_export { commit; export; index = 1; opening }
  in
  check_bool "genuine signatures convict" true
    (P.Judge.evaluate_offline kr (evidence commit export) = P.Judge.Guilty);
  let pub = P.Keyring.public_key kr a_as in
  let n = pub.C.Rsa.n in
  let scale x signature =
    C.Bigint.to_bytes_be ~pad_to:(C.Rsa.key_size pub)
      (C.Bigint.rem (C.Bigint.mul (C.Bigint.of_bytes_be signature) x) n)
  in
  let resigned ~decode ~encode s signature =
    Option.get
      (P.Wire.decode_signed ~decode
         (C.Codec.encode_list
            [
              encode s.P.Wire.payload;
              C.Bytes_util.be32 (G.Asn.to_int a_as);
              signature;
            ]))
  in
  let commit' =
    resigned ~decode:P.Wire.decode_commit ~encode:P.Wire.encode_commit commit
      (scale C.Bigint.two commit.P.Wire.signature)
  and export' =
    resigned ~decode:P.Wire.decode_export ~encode:P.Wire.encode_export export
      (scale (C.Bigint.mod_inv C.Bigint.two n) export.P.Wire.signature)
  in
  check_bool "forged pair not guilty" true
    (P.Judge.evaluate_offline kr (evidence commit' export') <> P.Judge.Guilty)

(* ---- Verified-root table ------------------------------------------------------ *)

let counted f =
  Pvr_obs.set_enabled true;
  let before = Pvr_obs.Snapshot.capture () in
  let result = f () in
  let d = Pvr_obs.Snapshot.diff ~before ~after:(Pvr_obs.Snapshot.capture ()) in
  Pvr_obs.set_enabled false;
  (result, d)

let verify_ops d = Pvr_obs.Snapshot.counter_value d "crypto.rsa.verify.ops"

(* Five statements under one root: every signature carries a 3-level
   path. *)
let table_batch =
  lazy
    (batch ~as_:a_as ~encode:P.Wire.encode_commit
       (List.init 5 (fun i -> commit_payload [ Printf.sprintf "c%d" i ])))

let check_commit = P.Wire.check ~encode:P.Wire.encode_commit

(* A verifier that has verified a root must still reject every statement
   whose own path does not lead to it: a flipped nonce or sibling byte, a
   different leaf index, or different statement bytes. *)
let table_rejects_altered_paths =
  qtest ~count:60 "wire table rejects altered paths"
    QCheck2.Gen.(triple (int_bound 4) (int_bound 3) (int_bound 10_000))
    (fun (which, kind, pos) ->
      let kr = Lazy.force keyring in
      let sigs = Lazy.force table_batch in
      let verified = (P.Wire.Verified.create (), b_as) in
      let all_ok =
        List.for_all Fun.id
          (P.Wire.verify_batch ~verified kr (List.map check_commit sigs))
      in
      let s = List.nth sigs which in
      let sg = Bytes.of_string s.P.Wire.signature in
      let flip at =
        Bytes.set sg at (Char.chr (Char.code (Bytes.get sg at) lxor 1))
      in
      let payload =
        match kind with
        | 0 ->
            flip (key_bytes + (pos mod 16));
            s.P.Wire.payload
        | 1 ->
            flip (key_bytes + 20 + (pos mod (3 * 32)));
            s.P.Wire.payload
        | 2 ->
            let index =
              C.Bytes_util.read_be32 s.P.Wire.signature (key_bytes + 16)
            in
            Bytes.blit_string
              (C.Bytes_util.be32 (index lxor (1 + (pos mod 15))))
              0 sg (key_bytes + 16) 4;
            s.P.Wire.payload
        | _ -> commit_payload [ Printf.sprintf "c%d" (5 + pos) ]
      in
      let altered =
        Option.get
          (P.Wire.decode_signed ~decode:P.Wire.decode_commit
             (C.Codec.encode_list
                [
                  P.Wire.encode_commit payload;
                  C.Bytes_util.be32 (G.Asn.to_int a_as);
                  Bytes.to_string sg;
                ]))
      in
      all_ok
      && P.Wire.verify_batch ~verified kr
           [ check_commit altered; check_commit s ]
         = [ false; true ])

(* Verdicts are kept per verifier: a second AS checking the same root pays
   for it once, then nothing for the root's other statements. *)
let table_pays_once_per_verifier () =
  let kr = Lazy.force keyring in
  let sigs = Lazy.force table_batch in
  let table = P.Wire.Verified.create () in
  let ops verifier statements =
    let verdicts, d =
      counted (fun () ->
          P.Wire.verify_batch ~verified:(table, verifier) kr
            (List.map check_commit statements))
    in
    check_bool "all verify" true (List.for_all Fun.id verdicts);
    verify_ops d
  in
  let first = List.hd sigs and rest = List.tl sigs in
  check_int "B: first statement" 1 (ops b_as [ first ]);
  check_int "B: rest of the root" 0 (ops b_as rest);
  check_int "second AS pays once" 1 (ops (asn 2) [ List.nth sigs 3 ]);
  check_int "second AS: rest of the root" 0 (ops (asn 2) sigs);
  check_int "no table: one call, one root" 1
    (verify_ops
       (snd
          (counted (fun () ->
               P.Wire.verify_batch kr (List.map check_commit sigs)))))

(* A beneficiary's warm table makes its own re-check free, while the judge,
   given the evidence alone, verifies the signatures again. *)
let table_judge_still_pays () =
  let kr = Lazy.force keyring in
  let out =
    P.Runner.prove ~max_path_len:8 ~behaviour:P.Adversary.Export_nonminimal
      (fresh_rng ()) kr ~prover:a_as ~beneficiary:b_as ~epoch:1 ~prefix:prefix0
      ~inputs:[ announce (asn 10) 2; announce (asn 11) 4 ]
  in
  let verified = P.Wire.Verified.create () in
  let check () =
    P.Proto_min.check_beneficiary ~verified kr ~me:b_as
      ~commit:(P.Runner.commit_for out b_as)
      ~disclosure:(P.Runner.beneficiary_disclosure out)
  in
  let evidence, cold = counted check in
  check_int "cold: export and provenance roots" 2 (verify_ops cold);
  let again, warm = counted check in
  check_int "warm: free" 0 (verify_ops warm);
  check_bool "same evidence" true (evidence = again);
  match evidence with
  | [ (P.Evidence.Nonminimal_export _ as e) ] ->
      let verdict, judged = counted (fun () -> P.Judge.evaluate_offline kr e) in
      check_bool "guilty" true (verdict = P.Judge.Guilty);
      (* Commit and export share A's batch root: one verify, not two. *)
      check_int "judge pays one RSA verify" 1 (verify_ops judged)
  | _ -> Alcotest.fail "one Nonminimal_export expected"

let judge_convicts_each_selfcontained_kind () =
  (* Sanity: run each behaviour and verify the judged kinds match. *)
  let expect_kind beh pred =
    let r = run_matrix beh in
    check_bool
      (P.Adversary.to_string beh ^ " evidence kind")
      true
      (List.exists (fun (_, e, v) -> v = P.Judge.Guilty && pred e) r.judged)
  in
  expect_kind P.Adversary.Export_nonminimal (function
    | P.Evidence.Nonminimal_export _ -> true
    | _ -> false);
  expect_kind P.Adversary.False_bits (function
    | P.Evidence.False_bit _ -> true
    | _ -> false);
  expect_kind P.Adversary.Equivocate (function
    | P.Evidence.Equivocation _ -> true
    | _ -> false);
  expect_kind P.Adversary.Suppress_export (function
    | P.Evidence.Missing_export_claim _ -> true
    | _ -> false);
  expect_kind P.Adversary.Refuse_disclosure (function
    (* The refusal surfaces as a timeout around the omission claim: over
       the network, withholding is indistinguishable from loss. *)
    | P.Evidence.Timeout { claim = P.Evidence.Missing_disclosure_claim _; _ }
      ->
        true
    | _ -> false);
  expect_kind P.Adversary.Forge_provenance (function
    | P.Evidence.Bad_provenance _ -> true
    | _ -> false)

let matrix_property_random_lengths =
  qtest "adversary matrix over random scenarios" ~count:10
    QCheck2.Gen.(list_size (int_range 2 4) (int_range 1 7))
    (fun lens ->
      let kr = Lazy.force keyring in
      let rng = fresh_rng () in
      let routes =
        List.mapi (fun i l -> (List.nth providers i, mk_route (List.nth providers i) l)) lens
      in
      let inputs = List.mapi (fun i l -> (List.nth providers i, l)) lens in
      List.for_all
        (fun beh ->
          let r =
            P.Runner.min_round ~max_path_len:8 beh rng kr ~prover:a_as
              ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~routes
          in
          let expected = P.Adversary.expected_detectors beh ~inputs in
          (* Every self-contained accusation convicts on its own. *)
          List.for_all
            (fun (_, e) ->
              match e with
              | P.Evidence.Missing_export_claim _
              | P.Evidence.Missing_disclosure_claim _ | P.Evidence.Timeout _ ->
                  true
              | _ -> P.Judge.evaluate_offline kr e = P.Judge.Guilty)
            r.raised
          &&
          if beh = P.Adversary.Honest then r.raised = [] && not r.convicted
          else if expected = [] then true (* undetectable instance *)
          else r.detected && r.convicted)
        P.Adversary.all)

(* ---- Graph protocol ----------------------------------------------------------------- *)

let graph_honest_min_clean () =
  let routes = List.mapi (fun i n -> (n, mk_route n (i + 1))) providers in
  let r = graph_round (R.Promise.Shortest_from providers) routes in
  check_bool "clean" false r.detected

let graph_honest_fig2_clean () =
  let routes = List.mapi (fun i n -> (n, mk_route n (4 - i))) providers in
  let promise =
    R.Promise.Prefer_unless_shorter
      { fallback = List.tl providers; override = List.hd providers }
  in
  let r = graph_round promise routes in
  check_bool "clean" false r.detected

(* §3.2's existential operator as a graph round: clean, and A exports
   exactly when some provider offered a route. *)
let graph_exists_clean routes () =
  let promise = R.Promise.Export_if_any providers in
  let r = graph_round promise routes in
  check_bool "clean" false r.detected;
  check_bool "export iff a route" (routes <> [])
    ((graph_draft promise routes).dr_export <> None)

let graph_honest_exists_clean =
  graph_exists_clean [ (List.hd providers, mk_route (List.hd providers) 3) ]

let exists_honest_no_routes = graph_exists_clean []

(* Property: honest graph rounds are clean for every promise shape over
   random scenarios. *)
let graph_honest_property =
  qtest "honest graph rounds clean across promises" ~count:10
    QCheck2.Gen.(pair (int_range 0 5) (list_size (int_range 1 4) (int_range 1 7)))
    (fun (which, lens) ->
      let subset = List.filteri (fun i _ -> i < List.length lens) providers in
      let routes =
        List.map2 (fun n l -> (n, mk_route n l)) subset lens
      in
      let promise =
        match which with
        | 0 -> R.Promise.Shortest_route
        | 1 -> R.Promise.Shortest_from subset
        | 2 -> R.Promise.Within_hops 2
        | 3 -> R.Promise.Export_if_any subset
        | 4 | _ -> begin
            match subset with
            | override :: (_ :: _ as fallback) ->
                R.Promise.Prefer_unless_shorter { fallback; override }
            | _ -> R.Promise.Shortest_route
          end
      in
      let r = graph_round promise routes in
      not r.P.Runner.detected)

let graph_honest_within_hops_clean () =
  (* Promise 3 over the graph protocol: threshold bits bound the window. *)
  let routes = List.mapi (fun i n -> (n, mk_route n (i + 2))) providers in
  let r = graph_round (R.Promise.Within_hops 2) routes in
  check_bool "clean" false r.detected

let graph_within_hops_window_enforced () =
  (* A window violation is caught: run the prover on an RFG whose operator
     *claims* within-2 but actually lets a route 4 hops beyond the minimum
     through (we fake it by evaluating a permissive graph and pairing it
     with a strict operator payload — simplest construction: check that B
     flags an export outside [m, m+n] by handing it a longer export). *)
  let kr = Lazy.force keyring in
  let inputs = [ announce (asn 10) 2; announce (asn 11) 6 ] in
  let d =
    graph_draft (R.Promise.Within_hops 2)
      [ (asn 10, mk_route (asn 10) 2); (asn 11, mk_route (asn 11) 6) ]
  in
  let commit = (graph_sign d).P.Runner.commit in
  let ds =
    P.Proto_graph.disclose ~role:`Beneficiary d ~alpha:d.dr_alpha ~viewer:b_as
  in
  (* The long (length-6) input is outside the window [2, 4]; A exports it
     anyway with a freshly signed export. *)
  let long = List.nth inputs 1 in
  let bad_export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = long.P.Wire.payload.P.Wire.ann_route;
        exp_provenance = Some long;
      }
  in
  let evs =
    P.Proto_graph.check_beneficiary kr ~me:b_as ~commit ~disclosures:ds
      ~export:(Some bad_export)
  in
  check_bool "window violation caught" true (evs <> []);
  List.iter
    (fun e ->
      check_bool "judged guilty" true
        (P.Judge.evaluate_offline kr e = P.Judge.Guilty))
    evs

(* A's graph commitment built from its public parts: every input variable
   holds its route and each operator its honest threshold bits over the
   shortest input, but B's output variable holds [out_routes].  Returns the
   signed commit and every vertex disclosed in full. *)
let forged_graph_commit promise routes ~out_routes =
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let rfg =
    R.Promise.reference_rfg promise ~beneficiary:b_as
      ~neighbors:(List.map fst routes)
  in
  let shortest =
    List.fold_left (fun m (_, r) -> min m (G.Route.path_length r)) max_int
      routes
  in
  let opened raw =
    let c, gc_opening = C.Commitment.commit rng raw in
    ((c :> string), { P.Evidence.gc_raw = raw; gc_opening })
  in
  let vertices =
    List.map
      (fun id ->
        let payload, bits =
          match R.Rfg.operator_of rfg id with
          | Some op ->
              let bits =
                List.init 8 (fun i ->
                    C.Commitment.commit_bit rng (shortest <= i + 1))
              in
              ( P.Proto_graph.encode_op_payload op
                  (List.map
                     (fun ((c : C.Commitment.commitment), _) -> (c :> string))
                     bits),
                List.mapi (fun i (_, o) -> (i + 1, o)) bits )
          | None ->
              ( P.Proto_graph.encode_var_payload
                  (if id = R.Promise.output_var b_as then out_routes
                   else
                     List.filter_map
                       (fun (n, r) ->
                         if id = R.Promise.input_var n then Some r else None)
                       routes),
                [] )
        in
        let comps =
          List.map opened
            [
              C.Codec.encode_list (R.Rfg.predecessors rfg id);
              C.Codec.encode_list (R.Rfg.successors rfg id);
              payload;
            ]
        in
        (id, C.Codec.encode_list (List.map fst comps), List.map snd comps, bits))
      (R.Rfg.vertex_ids rfg)
  in
  let tree =
    Pvr_merkle.Prefix_tree.build ~seed:(C.Drbg.generate rng 32)
      (List.map
         (fun (id, leaf, _, _) -> (Pvr_merkle.Bitstring.of_id id, leaf))
         vertices)
  in
  let commit =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "graph";
        cmt_commitments = [ Pvr_merkle.Prefix_tree.root tree ];
      }
  in
  let disclose (gd_vertex, _, comps, gd_bits) =
    let leaf, proof =
      Option.get
        (Pvr_merkle.Prefix_tree.prove tree
           (Pvr_merkle.Bitstring.of_id gd_vertex))
    in
    match comps with
    | [ preds; succs; payload ] ->
        {
          P.Evidence.gd_vertex;
          gd_leaf = leaf;
          gd_proof = proof;
          gd_preds = Some preds;
          gd_succs = Some succs;
          gd_payload = Some payload;
          gd_bits;
        }
    | _ -> assert false
  in
  (commit, List.map disclose vertices)

(* A commits B's output variable to the 6-hop route it exports although
   its bits show a 2-hop input: the export is committed, yet the committed
   output contradicts the evidence.  B's accusation must convict. *)
let graph_output_length_convicts () =
  let kr = Lazy.force keyring in
  let routes = [ (asn 10, mk_route (asn 10) 2); (asn 11, mk_route (asn 11) 6) ] in
  let long = announce (asn 11) 6 in
  let export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = long.P.Wire.payload.P.Wire.ann_route;
        exp_provenance = Some long;
      }
  in
  List.iter
    (fun promise ->
      let commit, disclosures =
        forged_graph_commit promise routes
          ~out_routes:[ long.P.Wire.payload.P.Wire.ann_route ]
      in
      let mismatches =
        List.filter
          (function
            | P.Evidence.Graph_violation
                { offence = P.Evidence.Output_evidence_mismatch _; _ } ->
                true
            | _ -> false)
          (P.Proto_graph.check_beneficiary kr ~me:b_as ~commit ~disclosures
             ~export:(Some export))
      in
      check_bool "B raises an output mismatch" true (mismatches <> []);
      List.iter
        (fun e ->
          check_bool "judged guilty" true
            (P.Judge.evaluate_offline kr e = P.Judge.Guilty))
        mismatches)
    [ R.Promise.Shortest_from [ asn 10; asn 11 ]; R.Promise.Within_hops 2 ]

(* B cut off from A holds A's commitment only through gossip and accuses
   A of silence.  The judge asks A for B's export: an honest A produces
   it, an A that withholds the export it owes cannot. *)
let graph_partitioned_beneficiary () =
  let kr = Lazy.force keyring in
  let faults =
    {
      P.Runner.perfect_faults with
      fp_links = [ ((a_as, b_as), Pvr_net.faulty ~partition:true ()) ];
    }
  in
  let routes = [ (asn 10, mk_route (asn 10) 2); (asn 11, mk_route (asn 11) 3) ] in
  let run d =
    let link, _ =
      P.Runner.connect (P.Runner.Net faults) (lazy (fresh_rng ()))
        ~prover:a_as routes
    in
    (P.Runner.check kr link (graph_sign d)).P.Runner.base
  in
  List.iter
    (fun promise ->
      let d = graph_draft promise routes in
      let honest = run d in
      check_bool "B accuses" true honest.P.Runner.detected;
      check_bool "honest A not convicted" false honest.P.Runner.convicted;
      check_bool "withheld export convicted" true
        (run { d with P.Proto_graph.dr_export = None }).P.Runner.convicted)
    [ R.Promise.Shortest_from [ asn 10; asn 11 ]; R.Promise.Export_if_any [ asn 10; asn 11 ] ]

(* A graph round's export addressed to another AS is no export to B. *)
let graph_misdirected_export_claimed () =
  let kr = Lazy.force keyring in
  let routes = [ (asn 10, mk_route (asn 10) 2); (asn 11, mk_route (asn 11) 3) ] in
  let d = graph_draft (R.Promise.Shortest_from [ asn 10; asn 11 ]) routes in
  let r = graph_sign d in
  let misdirected =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      { (Option.get r.export).P.Wire.payload with P.Wire.exp_to = asn 2 }
  in
  match
    P.Proto_graph.check_beneficiary kr ~me:b_as ~commit:r.commit
      ~disclosures:
        (P.Proto_graph.disclose d ~alpha:d.P.Proto_graph.dr_alpha ~viewer:b_as)
      ~export:(Some misdirected)
  with
  | [ (P.Evidence.Missing_export_claim _ as claim) ] ->
      check_bool "silence guilty" true
        (P.Judge.evaluate_offline kr claim = P.Judge.Guilty);
      check_bool "real export exonerates" true
        (P.Judge.evaluate kr ~respond:(P.Runner.respond r) claim
        = P.Judge.Exonerated)
  | _ -> Alcotest.fail "one Missing_export_claim expected"

(* A dishonest draft through the shared round, which signs and checks it
   like any other: the draft owes B [export] instead of its honest one.  B's
   evidence must satisfy [expected] and be judged guilty over both
   transports. *)
let graph_dishonest_convicted promise routes export expected () =
  let kr = Lazy.force keyring in
  let d =
    { (graph_draft promise routes) with P.Proto_graph.dr_export = export }
  in
  List.iter
    (fun (name, transport) ->
      let link, _ =
        P.Runner.connect transport (lazy (fresh_rng ())) ~prover:a_as routes
      in
      let r = (P.Runner.check kr link (graph_sign d)).P.Runner.base in
      check_bool (name ^ ": detected") true r.P.Runner.detected;
      check_bool (name ^ ": convicted") true r.P.Runner.convicted;
      check_bool (name ^ ": B's evidence judged guilty") true
        (List.exists
           (function
             | P.Adversary.Beneficiary, e, P.Judge.Guilty -> expected e
             | _ -> false)
           r.P.Runner.judged))
    [
      ("direct", P.Runner.Direct);
      ("net", P.Runner.Net P.Runner.perfect_faults);
    ]

(* The case above: A swaps its honest export for the longer admitted
   input. *)
let graph_dishonest_round_convicted =
  let routes =
    [ (asn 10, mk_route (asn 10) 2); (asn 11, mk_route (asn 11) 6) ]
  in
  graph_dishonest_convicted (R.Promise.Within_hops 2) routes
    (Some (List.assoc (asn 11) routes, P.Proto_min.Input (asn 11)))
    (function P.Evidence.Graph_violation _ -> true | _ -> false)

(* Export-if-any: A suppresses the export its committed bit owes B. *)
let exists_detects_suppression =
  graph_dishonest_convicted
    (R.Promise.Export_if_any [ asn 10 ])
    [ (asn 10, mk_route (asn 10) 2) ]
    None
    (function P.Evidence.Missing_export_claim _ -> true | _ -> false)

(* Every provider's route, provider i at length i + 1. *)
let graph_routes () = List.mapi (fun i n -> (n, mk_route n (i + 1))) providers

let graph_disclosure_integrity () =
  let ps = graph_draft (R.Promise.Shortest_from providers) (graph_routes ()) in
  let root = P.Proto_graph.root ps in
  let ds =
    P.Proto_graph.disclose ~role:`Beneficiary ps ~alpha:ps.dr_alpha
      ~viewer:b_as
  in
  check_bool "has disclosures" true (ds <> []);
  List.iter
    (fun d ->
      check_bool "integrity" true
        (P.Proto_graph.check_disclosure_integrity ~root d);
      check_bool "wrong root fails" false
        (P.Proto_graph.check_disclosure_integrity
           ~root:(String.make 32 '\x00') d))
    ds

let graph_alpha_confidentiality () =
  (* A provider must never receive another provider's input payload. *)
  let ps = graph_draft (R.Promise.Shortest_from providers) (graph_routes ()) in
  let n1 = List.hd providers and n2 = List.nth providers 1 in
  let ds =
    P.Proto_graph.disclose ~role:(`Provider 1) ps ~alpha:ps.dr_alpha ~viewer:n1
  in
  check_bool "own var payload present" true
    (List.exists
       (fun (d : P.Proto_graph.disclosure) ->
         d.gd_vertex = R.Promise.input_var n1 && d.gd_payload <> None)
       ds);
  check_bool "other var absent entirely" true
    (not
       (List.exists
          (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = R.Promise.input_var n2)
          ds));
  check_bool "output var not disclosed to provider" true
    (not
       (List.exists
          (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = R.Promise.output_var b_as)
          ds))

let graph_provider_gets_only_own_bit () =
  let ps = graph_draft (R.Promise.Shortest_from providers) (graph_routes ()) in
  let n3 = List.nth providers 2 in
  (* n3's route has length 3. *)
  let ds =
    P.Proto_graph.disclose ~role:(`Provider 3) ps ~alpha:ps.dr_alpha ~viewer:n3
  in
  let op_d =
    List.find
      (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = "op:min")
      ds
  in
  check_bool "exactly the one bit" true
    (List.map fst op_d.gd_bits = [ 3 ])

(* A commits [inputs] although AS10 announced a length-2 route.  AS10 must
   detect, and the judge must confirm from the evidence alone. *)
let graph_wrong_input promise inputs () =
  let kr = Lazy.force keyring in
  let real = announce (asn 10) 2 in
  let ps = graph_draft ~neighbors:providers promise inputs in
  let commit = (graph_sign ps).P.Runner.commit in
  let ds =
    P.Proto_graph.disclose ~role:(`Provider 2) ps ~alpha:ps.dr_alpha
      ~viewer:(asn 10)
  in
  (* AS10 checks against what it actually sent. *)
  let evs =
    P.Proto_graph.check_provider kr ~me:(asn 10) ~my_announce:real ~commit
      ~disclosures:ds
  in
  check_bool "wrong input detected" true
    (List.exists
       (function
         | P.Evidence.Graph_violation
             { offence = P.Evidence.Wrong_input_value _; _ } ->
             true
         | _ -> false)
       evs);
  List.iter
    (fun e ->
      match e with
      | P.Evidence.Graph_violation _ ->
          check_bool "judge confirms" true
            (P.Judge.evaluate_offline kr e = P.Judge.Guilty)
      | _ -> ())
    evs

(* A fake (length-4) route from AS10 under shortest-from. *)
let graph_wrong_input_detected =
  graph_wrong_input (R.Promise.Shortest_from providers)
    [ (asn 10, mk_route (asn 10) 4) ]

(* No route from AS10 at all under export-if-any: the false bit of §3.2. *)
let exists_detects_false_bit =
  graph_wrong_input (R.Promise.Export_if_any providers)
    [ (asn 11, mk_route (asn 11) 3) ]

(* ---- Threat-model boundary ------------------------------------------------------------- *)

let collusion_defeats_detection () =
  (* §2.3 Detection is conditional: "...and all of A's neighbors are
     correct".  If the ONE provider whose bit A falsified colludes (stays
     silent), nobody detects — the precondition is tight.  With a second
     honest short-route provider, detection returns. *)
  let kr = Lazy.force keyring in
  let rng = fresh_rng () in
  let short = announce (asn 10) 1 in
  let long = announce (asn 11) 5 in
  let run inputs =
    P.Runner.prove ~behaviour:P.Adversary.False_bits ~max_path_len:8 rng kr
      ~prover:a_as ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~inputs
  in
  (* Case 1: only AS10 could catch the lie, and it colludes (we simply do
     not run its check).  B's view is internally consistent. *)
  let out = run [ short; long ] in
  let b_evidence =
    P.Proto_min.check_beneficiary kr ~me:b_as ~commit:(P.Runner.commit_for out b_as)
      ~disclosure:(P.Runner.beneficiary_disclosure out)
  in
  let honest_long_evidence =
    P.Proto_min.check_neighbor kr ~me:(asn 11) ~my_announce:long
      ~commit:(P.Runner.commit_for out (asn 11))
      ~disclosure:(Option.join (List.assoc_opt (asn 11) (P.Runner.neighbor_disclosures out)))
  in
  check_int "B sees nothing" 0 (List.length b_evidence);
  check_int "the long-route provider sees nothing" 0
    (List.length honest_long_evidence);
  (* Case 2: an honest second short provider restores detection. *)
  let short2 = announce (asn 12) 2 in
  let out2 = run [ short; long; short2 ] in
  let honest_short2 =
    P.Proto_min.check_neighbor kr ~me:(asn 12) ~my_announce:short2
      ~commit:(P.Runner.commit_for out2 (asn 12))
      ~disclosure:(Option.join (List.assoc_opt (asn 12) (P.Runner.neighbor_disclosures out2)))
  in
  check_bool "an honest short provider detects" true (honest_short2 <> [])

let multi_prover_gossip_isolation () =
  (* Two provers commit in the same epoch/prefix; gossip must keep their
     slots apart — consistent commitments from different signers never
     count as equivocation. *)
  let kr = Lazy.force keyring in
  let g = P.Gossip.create kr in
  let commit_by signer payload =
    P.Wire.sign kr ~as_:signer ~encode:P.Wire.encode_commit
      {
        P.Wire.cmt_epoch = 1;
        cmt_prefix = prefix0;
        cmt_scheme = "min";
        cmt_commitments = [ payload ];
      }
  in
  let c1 = commit_by a_as "x" and c2 = commit_by (asn 2) "y" in
  ignore (P.Gossip.receive g ~holder:b_as c1);
  check_bool "different signer, no conflict" true
    (P.Gossip.receive g ~holder:b_as c2 = None);
  check_int "clean round with both" 0
    (List.length
       (P.Gossip.run_round g ~edges:(P.Gossip.clique_edges [ b_as; asn 10 ])))

(* ---- Evidence serialization ----------------------------------------------------------- *)

let evidence_codec_roundtrip_all_kinds () =
  (* Collect one piece of evidence per adversary behaviour, serialize it,
     decode it, and confirm the judge reaches the same verdict on the
     decoded copy. *)
  let kr = Lazy.force keyring in
  List.iter
    (fun beh ->
      if beh <> P.Adversary.Honest then begin
        let r = run_matrix beh in
        List.iter
          (fun (_, e, v) ->
            let bytes = P.Evidence_codec.encode e in
            match P.Evidence_codec.decode bytes with
            | None ->
                Alcotest.failf "decode failed for %s" (P.Evidence.describe e)
            | Some e' ->
                check_bool
                  ("same accused: " ^ P.Adversary.to_string beh)
                  true
                  (G.Asn.equal (P.Evidence.accused e') (P.Evidence.accused e));
                (* Self-contained evidence must still convict offline. *)
                let v' = P.Judge.evaluate_offline kr e' in
                let offline = P.Judge.evaluate_offline kr e in
                check_bool
                  ("verdict preserved offline: " ^ P.Adversary.to_string beh)
                  true (v' = offline);
                ignore v)
          r.judged
      end)
    P.Adversary.all

let evidence_codec_roundtrip_graph () =
  let kr = Lazy.force keyring in
  let real = announce (asn 10) 2 in
  let ps =
    graph_draft ~neighbors:providers (R.Promise.Shortest_from providers)
      [ (asn 10, mk_route (asn 10) 4) ]
  in
  let commit = (graph_sign ps).P.Runner.commit in
  let ds =
    P.Proto_graph.disclose ~role:(`Provider 2) ps ~alpha:ps.dr_alpha
      ~viewer:(asn 10)
  in
  let evs =
    P.Proto_graph.check_provider kr ~me:(asn 10) ~my_announce:real ~commit
      ~disclosures:ds
  in
  List.iter
    (fun e ->
      match e with
      | P.Evidence.Graph_violation _ -> begin
          match P.Evidence_codec.of_hex (P.Evidence_codec.to_hex e) with
          | None -> Alcotest.fail "graph evidence decode failed"
          | Some e' ->
              check_bool "graph verdict survives transport" true
                (P.Judge.evaluate_offline kr e' = P.Judge.Guilty)
        end
      | _ -> ())
    evs

(* ---- Wire transport codecs ----------------------------------------------------------- *)

let wire_announce_transport_roundtrip () =
  let kr = Lazy.force keyring in
  let ann = announce (asn 10) 3 in
  let bytes = P.Wire.encode_signed ~encode:P.Wire.encode_announce ann in
  match P.Wire.decode_signed ~decode:P.Wire.decode_announce bytes with
  | None -> Alcotest.fail "decode failed"
  | Some ann' ->
      check_bool "signature still verifies" true
        (P.Wire.verify kr ~encode:P.Wire.encode_announce ann');
      check_bool "payload preserved" true
        (P.Wire.encode_announce ann'.P.Wire.payload
        = P.Wire.encode_announce ann.P.Wire.payload)

let wire_commit_transport_roundtrip () =
  let kr = Lazy.force keyring in
  let commit = sign_commit ~scheme:"min" [ String.make 32 'a'; String.make 32 'b' ] in
  let bytes = P.Wire.encode_signed ~encode:P.Wire.encode_commit commit in
  match P.Wire.decode_signed ~decode:P.Wire.decode_commit bytes with
  | None -> Alcotest.fail "decode failed"
  | Some c ->
      check_bool "verifies" true (P.Wire.verify kr ~encode:P.Wire.encode_commit c);
      check_int "commitments preserved" 2
        (List.length c.P.Wire.payload.P.Wire.cmt_commitments)

let wire_export_transport_roundtrip () =
  let kr = Lazy.force keyring in
  let chosen = announce (asn 11) 2 in
  let export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = chosen.P.Wire.payload.P.Wire.ann_route;
        exp_provenance = Some chosen;
      }
  in
  let bytes = P.Wire.encode_signed ~encode:P.Wire.encode_export export in
  match P.Wire.decode_signed ~decode:P.Wire.decode_export bytes with
  | None -> Alcotest.fail "decode failed"
  | Some e ->
      check_bool "outer signature verifies" true
        (P.Wire.verify kr ~encode:P.Wire.encode_export e);
      (match e.P.Wire.payload.P.Wire.exp_provenance with
      | Some inner ->
          check_bool "nested provenance verifies" true
            (P.Wire.verify kr ~encode:P.Wire.encode_announce inner)
      | None -> Alcotest.fail "provenance lost")

let wire_decode_rejects_truncation () =
  let ann = announce (asn 10) 2 in
  let bytes = P.Wire.encode_signed ~encode:P.Wire.encode_announce ann in
  for cut = 0 to String.length bytes - 1 do
    match
      P.Wire.decode_signed ~decode:P.Wire.decode_announce
        (String.sub bytes 0 cut)
    with
    | None -> ()
    | Some _ -> Alcotest.failf "truncation at %d accepted" cut
  done

(* ---- transport round-trip properties ---------------------------------------------- *)

let wire_announce_roundtrip_property =
  qtest "wire: arbitrary announces roundtrip" ~count:25
    QCheck2.Gen.(triple (int_range 1 9) (int_range 0 3) (int_range 1 8))
    (fun (epoch, pi, len) ->
      let ann = announce ~epoch (List.nth providers pi) len in
      match
        P.Wire.decode_signed ~decode:P.Wire.decode_announce
          (P.Wire.encode_signed ~encode:P.Wire.encode_announce ann)
      with
      | None -> false
      | Some ann' ->
          P.Wire.verify (Lazy.force keyring) ~encode:P.Wire.encode_announce ann'
          && P.Wire.encode_announce ann'.P.Wire.payload
             = P.Wire.encode_announce ann.P.Wire.payload)

let wire_commit_roundtrip_property =
  qtest "wire: arbitrary commits roundtrip" ~count:25
    QCheck2.Gen.(
      pair (int_range 1 9)
        (list_size (int_range 0 6) (string_size (int_range 0 40))))
    (fun (epoch, commitments) ->
      let c = sign_commit ~epoch commitments in
      match
        P.Wire.decode_signed ~decode:P.Wire.decode_commit
          (P.Wire.encode_signed ~encode:P.Wire.encode_commit c)
      with
      | None -> false
      | Some c' ->
          P.Wire.verify (Lazy.force keyring) ~encode:P.Wire.encode_commit c'
          && c'.P.Wire.payload.P.Wire.cmt_commitments = commitments)

(* Sign once; every property case mutates one byte of the transport bytes.
   A mutation must be caught somewhere: the decoder rejects it, or the
   signature check fails.  (A mutation in redundant encoding bits may decode
   back to the identical statement — re-encoding equal to the original is
   the only acceptance we allow.) *)
let wire_mutation_property =
  let original =
    lazy (P.Wire.encode_signed ~encode:P.Wire.encode_announce (announce (asn 10) 3))
  in
  qtest "wire: mutated bytes never verify" ~count:150
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 255))
    (fun (pos, delta) ->
      let original = Lazy.force original in
      let b = Bytes.of_string original in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos
        (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      match
        P.Wire.decode_signed ~decode:P.Wire.decode_announce (Bytes.to_string b)
      with
      | None -> true
      | Some ann' ->
          (not
             (P.Wire.verify (Lazy.force keyring) ~encode:P.Wire.encode_announce
                ann'))
          || P.Wire.encode_signed ~encode:P.Wire.encode_announce ann' = original)

let evidence_equivocation_roundtrip_property =
  qtest "evidence: arbitrary equivocations roundtrip" ~count:15
    QCheck2.Gen.(pair (string_size (int_range 0 24)) (string_size (int_range 0 24)))
    (fun (x, y) ->
      let e =
        P.Evidence.Equivocation
          { first = sign_commit [ x ]; second = sign_commit [ y ] }
      in
      match P.Evidence_codec.decode (P.Evidence_codec.encode e) with
      | None -> false
      | Some e' -> P.Evidence_codec.encode e' = P.Evidence_codec.encode e)

let evidence_mutation_property =
  let original =
    lazy
      (P.Evidence_codec.encode
         (P.Evidence.Equivocation
            { first = sign_commit [ "x" ]; second = sign_commit [ "y" ] }))
  in
  qtest "evidence: mutated bytes never convict" ~count:60
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 255))
    (fun (pos, delta) ->
      let original = Lazy.force original in
      let b = Bytes.of_string original in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos
        (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      match P.Evidence_codec.decode (Bytes.to_string b) with
      | None -> true
      | Some e' ->
          P.Evidence_codec.encode e' = original
          || P.Judge.evaluate_offline (Lazy.force keyring) e' <> P.Judge.Guilty)

(* ---- gossip round semantics -------------------------------------------------------- *)

let gossip_ring_one_round_miss_clique_catches () =
  (* Six ring members; the conflicting commitments sit three hops apart, so
     they share neither an edge nor a neighbor.  A synchronous ring round
     moves views one hop and must miss the conflict; the second round and
     the clique's direct edge must catch it. *)
  let kr = Lazy.force keyring in
  let members = List.init 6 (fun i -> asn (500 + i)) in
  let c1 = sign_commit [ "x" ] and c2 = sign_commit [ "y" ] in
  let load g =
    ignore (P.Gossip.receive g ~holder:(List.nth members 0) c1);
    ignore (P.Gossip.receive g ~holder:(List.nth members 3) c2)
  in
  let ring = P.Gossip.create kr in
  load ring;
  let edges = P.Gossip.ring_edges members in
  check_int "ring round 1 misses" 0
    (List.length (P.Gossip.run_round ring ~edges));
  check_bool "ring round 2 catches" true (P.Gossip.run_round ring ~edges <> []);
  let clique = P.Gossip.create kr in
  load clique;
  check_bool "clique round 1 catches" true
    (P.Gossip.run_round clique ~edges:(P.Gossip.clique_edges members) <> [])

let gossip_round_dedups_evidence () =
  (* One holder has the lying commitment, the other four the truthful one:
     the same conflicting pair surfaces on every edge incident to the liar's
     holder, but the round must report it exactly once. *)
  let kr = Lazy.force keyring in
  let members = List.init 5 (fun i -> asn (600 + i)) in
  let c1 = sign_commit [ "x" ] and c2 = sign_commit [ "y" ] in
  let g = P.Gossip.create kr in
  ignore (P.Gossip.receive g ~holder:(List.hd members) c2);
  List.iter
    (fun m -> ignore (P.Gossip.receive g ~holder:m c1))
    (List.tl members);
  let evs = P.Gossip.run_round g ~edges:(P.Gossip.clique_edges members) in
  check_int "reported once" 1 (List.length evs);
  match evs with
  | [ P.Evidence.Equivocation _ ] -> ()
  | _ -> Alcotest.fail "expected a single equivocation"

(* ---- S-BGP attestation chains ------------------------------------------------------ *)

let sbgp_route len =
  (* Build a route whose whole path lives in the keyring: use A, AS2 and
     providers as hops. *)
  let pool = a_as :: asn 2 :: providers in
  let path = List.filteri (fun i _ -> i < len) pool in
  let origin = List.nth path (len - 1) in
  let base = G.Route.originate ~asn:origin prefix0 in
  match path with
  | first :: _ -> { base with G.Route.as_path = path; next_hop = first }
  | [] -> assert false

let sbgp_chain_verifies () =
  let kr = Lazy.force keyring in
  List.iter
    (fun len ->
      let route = sbgp_route len in
      let chain = P.Sbgp.chain_route kr route ~to_:b_as in
      check_bool
        (Printf.sprintf "chain of %d verifies" len)
        true
        (P.Sbgp.verify kr ~prefix:prefix0 ~path:route.G.Route.as_path
           ~to_:b_as chain);
      check_bool "wrong recipient fails" false
        (P.Sbgp.verify kr ~prefix:prefix0 ~path:route.G.Route.as_path
           ~to_:(asn 2) chain))
    [ 1; 2; 4 ]

let sbgp_extend () =
  let kr = Lazy.force keyring in
  let origin = List.hd providers in
  let chain = P.Sbgp.originate kr ~origin ~prefix:prefix0 ~to_:a_as in
  (match P.Sbgp.extend kr ~me:a_as ~to_:b_as chain with
  | Ok chain' ->
      check_bool "extended chain verifies" true
        (P.Sbgp.verify kr ~prefix:prefix0 ~path:[ a_as; origin ] ~to_:b_as
           chain')
  | Error e -> Alcotest.failf "extend failed: %s" e);
  (* Extending a chain that was not addressed to you must fail. *)
  match P.Sbgp.extend kr ~me:(asn 2) ~to_:b_as chain with
  | Ok _ -> Alcotest.fail "hijacked extension accepted"
  | Error _ -> ()

let sbgp_path_shortening_rejected () =
  (* An AS that drops a hop from the path (path-shortening attack, one of
     the §1 'lie about routes' incentives) cannot produce a valid chain. *)
  let kr = Lazy.force keyring in
  let route = sbgp_route 3 in
  let chain = P.Sbgp.chain_route kr route ~to_:b_as in
  let shortened =
    match route.G.Route.as_path with
    | keep :: _ :: rest -> keep :: rest
    | _ -> assert false
  in
  check_bool "shortened path rejected" false
    (P.Sbgp.verify kr ~prefix:prefix0 ~path:shortened ~to_:b_as chain);
  (* Dropping the matching attestation does not help either. *)
  let pruned = match chain with a :: _ :: rest -> a :: rest | c -> c in
  check_bool "pruned chain rejected" false
    (P.Sbgp.verify kr ~prefix:prefix0 ~path:shortened ~to_:b_as pruned)

(* ---- Bitvec commitment strategies (DESIGN §5 ablation) ----------------------------- *)

let bitvec_roundtrip_both_strategies () =
  let bits = [ false; false; true; true; true; false; true; true ] in
  List.iter
    (fun strategy ->
      let rng = fresh_rng () in
      let t, published = P.Bitvec.commit rng strategy bits in
      List.iteri
        (fun i expected ->
          let proof = P.Bitvec.open_bit t (i + 1) in
          check_bool
            (P.Bitvec.strategy_to_string strategy ^ " bit " ^ string_of_int i)
            true
            (P.Bitvec.verify_bit strategy published ~k:8 ~index:(i + 1) proof
            = Some expected))
        bits)
    [ P.Bitvec.Per_bit; P.Bitvec.Merkle_vector ]

let bitvec_sizes_tradeoff () =
  let rng = fresh_rng () in
  let bits = List.init 64 (fun i -> i mod 3 = 0) in
  let t_pb, pub_pb = P.Bitvec.commit rng P.Bitvec.Per_bit bits in
  let t_mv, pub_mv = P.Bitvec.commit rng P.Bitvec.Merkle_vector bits in
  (* Published: linear vs constant. *)
  check_bool "per-bit publishes k digests" true
    (P.Bitvec.published_bytes pub_pb = 64 * 32);
  check_bool "merkle publishes one root" true
    (P.Bitvec.published_bytes pub_mv = 32);
  (* Disclosure: constant vs logarithmic. *)
  let d_pb = P.Bitvec.proof_bytes (P.Bitvec.open_bit t_pb 5) in
  let d_mv = P.Bitvec.proof_bytes (P.Bitvec.open_bit t_mv 5) in
  check_bool "merkle proofs are bigger" true (d_mv > d_pb);
  check_bool "but only by ~log k siblings" true (d_mv <= d_pb + (7 * 40))

let bitvec_rejects_wrong_index () =
  let rng = fresh_rng () in
  let bits = [ true; false; true; false ] in
  let t, published = P.Bitvec.commit rng P.Bitvec.Merkle_vector bits in
  let proof = P.Bitvec.open_bit t 1 in
  (* Proof for bit 1 cannot pass as bit 2. *)
  check_bool "index binding" true
    (P.Bitvec.verify_bit P.Bitvec.Merkle_vector published ~k:4 ~index:2 proof
    = None);
  check_bool "out of range" true
    (P.Bitvec.verify_bit P.Bitvec.Merkle_vector published ~k:4 ~index:9 proof
    = None)

(* ---- Composite operators in the graph protocol ------------------------------------ *)

let composite_rfg () =
  (* Outer graph: a composite hides "min over two providers" internals. *)
  let inner =
    let g = R.Rfg.add_var R.Rfg.empty "a" (R.Rfg.Input (asn 901)) in
    let g = R.Rfg.add_var g "b" (R.Rfg.Input (asn 902)) in
    let g = R.Rfg.add_var g "secret-out" (R.Rfg.Output (asn 903)) in
    R.Rfg.add_op g "secret-min" R.Operator.Min_path_length
      ~inputs:[ "a"; "b" ] ~output:"secret-out"
  in
  let g =
    R.Rfg.add_var R.Rfg.empty (R.Promise.input_var (asn 10))
      (R.Rfg.Input (asn 10))
  in
  let g =
    R.Rfg.add_var g (R.Promise.input_var (asn 11)) (R.Rfg.Input (asn 11))
  in
  let g = R.Rfg.add_var g (R.Promise.output_var b_as) (R.Rfg.Output b_as) in
  R.Rfg.add_composite g "comp" ~inner
    ~inputs:[ R.Promise.input_var (asn 10); R.Promise.input_var (asn 11) ]
    ~output:(R.Promise.output_var b_as)

let composite_prove () =
  P.Proto_graph.draft ~max_path_len:8 (fresh_rng ()) ~prover:a_as
    ~beneficiary:b_as ~epoch:1 ~prefix:prefix0 ~rfg:(composite_rfg ())
    ~alpha:P.Access_control.deny_all
    ~inputs:[ (asn 10, mk_route (asn 10) 3); (asn 11, mk_route (asn 11) 2) ]

let graph_composite_structural_privacy () =
  let ps = composite_prove () in
  (* α lets B see the composite vertex but none of its internals. *)
  let alpha =
    P.Access_control.allow P.Access_control.deny_all ~viewer:b_as "comp"
  in
  let ds = P.Proto_graph.disclose ~role:`Beneficiary ps ~alpha ~viewer:b_as in
  let comp_d =
    List.find (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = "comp") ds
  in
  (* The payload reveals only "comp" + a 32-byte root — no operator type,
     no vertex count, nothing about the internals. *)
  (match comp_d.gd_payload with
  | Some c -> check_bool "payload is opaque" true (String.length c.gc_raw < 64)
  | None -> Alcotest.fail "payload expected");
  check_bool "no internals disclosed under restrictive alpha" true
    (P.Proto_graph.disclose_composite ps ~alpha ~viewer:b_as ~composite:"comp"
    = Some (Option.get (P.Proto_graph.composite_inner_root ps ~composite:"comp"), []))

let graph_composite_authorized_inspection () =
  let ps = composite_prove () in
  let root = P.Proto_graph.root ps in
  (* α additionally grants the inner vertices (namespaced ids). *)
  let alpha =
    List.fold_left
      (fun a v -> P.Access_control.allow a ~viewer:b_as v)
      P.Access_control.deny_all
      [ "comp"; "comp/a"; "comp/b"; "comp/secret-min"; "comp/secret-out" ]
  in
  let ds = P.Proto_graph.disclose ~role:`Beneficiary ps ~alpha ~viewer:b_as in
  let comp_d =
    List.find (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = "comp") ds
  in
  match P.Proto_graph.disclose_composite ps ~alpha ~viewer:b_as ~composite:"comp" with
  | None -> Alcotest.fail "expected composite internals"
  | Some (inner_root, inner) ->
      check_int "all four internals" 4 (List.length inner);
      check_bool "composite check passes" true
        (P.Proto_graph.check_composite ~outer_root:root
           ~composite_disclosure:comp_d ~inner_root ~inner);
      check_bool "wrong inner root fails" false
        (P.Proto_graph.check_composite ~outer_root:root
           ~composite_disclosure:comp_d ~inner_root:(String.make 32 '\x00')
           ~inner);
      (* The inner min operator's evidence bits work like any other's. *)
      let min_d =
        List.find
          (fun (d : P.Proto_graph.disclosure) -> d.gd_vertex = "comp/secret-min")
          inner
      in
      check_bool "inner op has bit openings" true (min_d.gd_bits <> [])

let graph_composite_evaluates () =
  let ps = composite_prove () in
  match ps.dr_export with
  | Some (route, _) ->
      check_int "composite computed the min" 2 (G.Route.path_length route)
  | None -> Alcotest.fail "expected export"

(* ---- Proto_no_shorter (§2 promise 4) --------------------------------------------- *)

let noshorter_equal_exports_clean () =
  let out = noshorter_run [ Some 3; Some 3; Some 3 ] in
  List.iter
    (fun m -> check_int "clean" 0 (List.length (noshorter_check out m)))
    beneficiaries3

let noshorter_absent_export_clean () =
  (* A beneficiary that was told nothing has a vacuous promise. *)
  let out = noshorter_run [ Some 2; None; Some 2 ] in
  List.iter
    (fun m -> check_int "clean" 0 (List.length (noshorter_check out m)))
    beneficiaries3

let noshorter_detects_favouritism () =
  (* AS2 gets a strictly shorter route than B: B must detect, AS2 is fine. *)
  let out = noshorter_run [ Some 4; Some 2; Some 4 ] in
  let evs_b = noshorter_check out b_as in
  check_bool "B detects a shorter export" true
    (List.exists
       (function P.Evidence.Nonminimal_export _ -> true | _ -> false)
       evs_b);
  check_int "the favoured one is clean" 0
    (List.length (noshorter_check out (asn 2)));
  (* The evidence convinces a judge offline (self-contained). *)
  let kr = Lazy.force keyring in
  List.iter
    (fun e ->
      match e with
      | P.Evidence.Nonminimal_export _ ->
          check_bool "judge convicts" true
            (P.Judge.evaluate_offline kr e = P.Judge.Guilty)
      | _ -> ())
    evs_b

let noshorter_own_vector_mismatch () =
  (* A commits a vector for length 4 but then hands B an export of length 2:
     B's own-vector check fires and the judge convicts. *)
  let kr = Lazy.force keyring in
  let out = noshorter_run [ Some 4; Some 4; Some 4 ] in
  let short_input = announce (List.nth providers 1) 2 in
  let sneaky_export =
    P.Wire.sign kr ~as_:a_as ~encode:P.Wire.encode_export
      {
        P.Wire.exp_epoch = 1;
        exp_to = b_as;
        exp_route = short_input.P.Wire.payload.P.Wire.ann_route;
        exp_provenance = Some short_input;
      }
  in
  let original = List.assoc b_as out.P.Proto_no_shorter.per_beneficiary in
  let evs =
    P.Proto_no_shorter.check_beneficiary kr ~me:b_as
      ~commit:out.P.Proto_no_shorter.commit
      ~disclosure:{ original with bd_export = Some sneaky_export }
  in
  check_bool "own-vector mismatch raised" true
    (List.exists
       (function P.Evidence.Own_vector_mismatch _ -> true | _ -> false)
       evs);
  List.iter
    (fun e ->
      match e with
      | P.Evidence.Own_vector_mismatch _ ->
          check_bool "judge convicts mismatch" true
            (P.Judge.evaluate_offline kr e = P.Judge.Guilty)
      | _ -> ())
    evs

let noshorter_property =
  qtest "promise 4: exactly the longer-served beneficiaries detect" ~count:15
    QCheck2.Gen.(list_repeat 3 (int_range 1 6))
    (fun lens ->
      let out = noshorter_run (List.map (fun l -> Some l) lens) in
      let minimum = List.fold_left min max_int lens in
      List.for_all2
        (fun m l ->
          let evs = noshorter_check out m in
          let has_shorter =
            List.exists
              (function
                | P.Evidence.Nonminimal_export _ -> true | _ -> false)
              evs
          in
          if l > minimum then has_shorter else evs = [])
        beneficiaries3 lens)

(* Zero excess: an exported beneficiary's opened bits are the threshold
   vector of its own route's length, whoever else got the same length or
   nothing. *)
let noshorter_bits_are_own_length =
  qtest "promise 4: opened bits depend on the own route only" ~count:15
    QCheck2.Gen.(pair (int_range 1 6) (list_repeat 3 bool))
    (fun (l, exported) ->
      let out =
        noshorter_run
          (List.map (fun e -> if e then Some l else None) exported)
      in
      List.for_all2
        (fun m e ->
          let d = List.assoc m out.P.Proto_no_shorter.per_beneficiary in
          let bits =
            List.map
              (fun (i, o) ->
                (i, P.Proto_common.opening_bit_at out.commit ~index:i o))
              d.bd_openings
          in
          if e then bits = List.init 6 (fun i -> (i + 1, Some (l <= i + 1)))
          else bits = [] && d.bd_export = None)
        beneficiaries3 exported)

(* §3.8: the commit and every export share one RSA signature, and the
   commit is exactly k digests. *)
let noshorter_one_sign () =
  List.iter
    (fun n ->
      let exports =
        noshorter_exports
          (List.init 3 (fun i -> if i < n then Some 3 else None))
      in
      let out, d = counted (fun () -> noshorter_prove exports) in
      check_int
        (Printf.sprintf "%d exports: one RSA sign" n)
        1
        (Pvr_obs.Snapshot.counter_value d "crypto.rsa.sign.ops");
      check_int "k digests" 6
        (List.length out.commit.payload.cmt_commitments))
    [ 1; 2; 3 ]

(* ---- Leakage (Confidentiality) -------------------------------------------------------- *)

let leakage_pvr_beneficiary_zero_excess () =
  let exported = Some (mk_route (asn 10) 2) in
  let baseline = P.Leakage.plain_bgp_beneficiary ~exported in
  let openings = List.init 8 (fun i -> (i + 1, 2 <= i + 1)) in
  let observed = P.Leakage.pvr_min_beneficiary ~k:8 ~openings ~exported in
  check_int "zero excess" 0 (P.Leakage.excess_count ~baseline ~observed)

let leakage_pvr_provider_zero_excess () =
  let me = asn 10 in
  let my_route = mk_route me 3 in
  let baseline = P.Leakage.plain_bgp_provider ~me ~my_route in
  let observed =
    P.Leakage.pvr_min_provider ~me ~my_route ~revealed_bit:(Some (3, true))
  in
  check_int "zero excess" 0 (P.Leakage.excess_count ~baseline ~observed)

let leakage_netreview_leaks () =
  let inputs = List.mapi (fun i n -> (n, mk_route n (i + 2))) providers in
  let me = List.hd providers in
  let my_route = List.assoc me inputs in
  let baseline = P.Leakage.plain_bgp_provider ~me ~my_route in
  let observed = P.Leakage.netreview_neighbor ~inputs in
  let excess = P.Leakage.excess_count ~baseline ~observed in
  (* Everyone else's route (3) plus the exact minimum length. *)
  check_bool "netreview leaks" true (excess >= 3)

let leakage_bits_derivable_from_export () =
  (* Every bit B sees is implied by the exported minimum: bit i = (L <= i). *)
  let exported = Some (mk_route (asn 10) 3) in
  let baseline = P.Leakage.plain_bgp_beneficiary ~exported in
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "bit %d derivable" i)
        true
        (P.Leakage.derivable ~baseline
           (P.Leakage.Knows_bit { index = i; value = 3 <= i })))
    [ 1; 2; 3; 4; 5 ]

let leakage_foreign_route_not_derivable () =
  let exported = Some (mk_route (asn 10) 3) in
  let baseline = P.Leakage.plain_bgp_beneficiary ~exported in
  check_bool "foreign route is excess" false
    (P.Leakage.derivable ~baseline
       (P.Leakage.Knows_route { provider = asn 11; route = mk_route (asn 11) 5 }))

let suite =
  [
    ("wire sign/verify", `Quick, wire_sign_verify);
    ("wire forged identity rejected", `Quick, wire_forged_identity_rejected);
    ("wire tamper rejected", `Quick, wire_tamper_rejected);
    ("keyring unknown raises", `Quick, keyring_unknown_raises);
    ("wire batch of one = plain signature (KAT)", `Quick, wire_batch_of_one_kat);
    ("wire batched signatures verify", `Quick, wire_batched_verify);
    ("wire batch mixes statement kinds", `Quick, wire_batch_mixes_kinds);
    ("accuracy: re-batched commit is not equivocation", `Quick,
     accuracy_rebatched_commit_not_equivocation);
    ("evidence: batched signatures survive transport", `Quick,
     evidence_batched_transport);
    ("confidentiality: batched siblings are salted", `Quick,
     confidentiality_batched_siblings_hidden);
    ("alpha figure 1", `Quick, alpha_figure1);
    ("alpha components independent", `Quick, alpha_components_independent);
    ("alpha for_promise verifiable", `Quick, alpha_for_promise_verifiable);
    ("gossip consistent ok", `Quick, gossip_consistent_ok);
    ("gossip detects equivocation", `Quick, gossip_detects_equivocation);
    ("gossip distinct epochs fine", `Quick, gossip_different_epochs_no_conflict);
    ("gossip ring eventually detects", `Quick, gossip_ring_misses_pairwise_split);
    ("gossip ignores invalid signatures", `Quick, gossip_invalid_signature_ignored);
    ("exists honest without routes", `Quick, exists_honest_no_routes);
    ("exists detects suppression", `Quick, exists_detects_suppression);
    ("exists detects false bit", `Quick, exists_detects_false_bit);
    ("exists ring-signature variant", `Quick, exists_ring_variant);
    ("min honest clean", `Quick, min_honest_clean);
    ("min commitment count = k", `Quick, min_commitment_count);
    ("min ignores invalid inputs", `Quick, min_ignores_invalid_inputs);
    ("min ignores paths beyond k", `Quick, min_paths_beyond_k_ignored);
    min_honest_property;
    ("matrix: honest accuracy", `Quick, matrix_honest_accuracy);
    ("matrix: all behaviours convicted", `Slow, matrix_all_behaviours_convicted);
    ("matrix: expected detectors fire", `Slow, matrix_detectors_as_expected);
    ("matrix: honest A exonerated on false claim", `Quick, matrix_no_false_accusations);
    ("matrix: stubborn omission guilty", `Quick, matrix_stubborn_omission_guilty);
    ("judge rejects fabrications", `Quick, judge_rejects_fabrications);
    ("judge: cancelling forgery not guilty", `Quick,
     judge_cancelling_forgery_not_guilty);
    table_rejects_altered_paths;
    ("wire table pays once per verifier", `Quick, table_pays_once_per_verifier);
    ("wire table: judge still pays RSA", `Quick, table_judge_still_pays);
    ("judge rejects cross-scheme confusion", `Quick, judge_rejects_cross_scheme_confusion);
    ("min tie between equal routes", `Quick, min_tie_between_equal_routes);
    ("min: export beyond k convicts as nonminimal", `Quick,
     min_export_beyond_k_nonminimal);
    ("min: misdirected export judged by export challenge", `Quick,
     min_misdirected_export_claimed);
    ("judge convicts each evidence kind", `Slow, judge_convicts_each_selfcontained_kind);
    matrix_property_random_lengths;
    ("graph honest min clean", `Quick, graph_honest_min_clean);
    ("graph honest fig2 clean", `Quick, graph_honest_fig2_clean);
    ("graph honest exists clean", `Quick, graph_honest_exists_clean);
    ("graph honest within-hops clean", `Quick, graph_honest_within_hops_clean);
    graph_honest_property;
    ("graph within-hops window enforced", `Quick, graph_within_hops_window_enforced);
    ("graph: B's output-length evidence convicts", `Quick,
     graph_output_length_convicts);
    ("graph: partitioned B judged by export challenge", `Quick,
     graph_partitioned_beneficiary);
    ("graph: misdirected export judged by export challenge", `Quick,
     graph_misdirected_export_claimed);
    ("graph dishonest round convicted", `Quick,
     graph_dishonest_round_convicted);
    ("graph disclosure integrity", `Quick, graph_disclosure_integrity);
    ("graph alpha confidentiality", `Quick, graph_alpha_confidentiality);
    ("graph provider gets only own bit", `Quick, graph_provider_gets_only_own_bit);
    ("graph wrong input detected + judged", `Quick, graph_wrong_input_detected);
    ("threat model: collusion defeats detection", `Quick, collusion_defeats_detection);
    ("gossip: multi-prover isolation", `Quick, multi_prover_gossip_isolation);
    ("evidence codec: all kinds roundtrip", `Slow, evidence_codec_roundtrip_all_kinds);
    ("evidence codec: graph violations", `Quick, evidence_codec_roundtrip_graph);
    ("wire transport: announce roundtrip", `Quick, wire_announce_transport_roundtrip);
    ("wire transport: commit roundtrip", `Quick, wire_commit_transport_roundtrip);
    ("wire transport: export roundtrip", `Quick, wire_export_transport_roundtrip);
    ("wire transport: truncation rejected", `Quick, wire_decode_rejects_truncation);
    wire_announce_roundtrip_property;
    wire_commit_roundtrip_property;
    wire_mutation_property;
    evidence_equivocation_roundtrip_property;
    evidence_mutation_property;
    ("gossip ring one-round miss, clique catches", `Quick,
     gossip_ring_one_round_miss_clique_catches);
    ("gossip round dedups evidence", `Quick, gossip_round_dedups_evidence);
    ("sbgp: chains verify", `Quick, sbgp_chain_verifies);
    ("sbgp: extend", `Quick, sbgp_extend);
    ("sbgp: path shortening rejected", `Quick, sbgp_path_shortening_rejected);
    ("bitvec: roundtrip both strategies", `Quick, bitvec_roundtrip_both_strategies);
    ("bitvec: size tradeoff", `Quick, bitvec_sizes_tradeoff);
    ("bitvec: rejects wrong index", `Quick, bitvec_rejects_wrong_index);
    ("composite: structural privacy", `Quick, graph_composite_structural_privacy);
    ("composite: authorized inspection", `Quick, graph_composite_authorized_inspection);
    ("composite: evaluates through", `Quick, graph_composite_evaluates);
    ("noshorter: equal exports clean", `Quick, noshorter_equal_exports_clean);
    ("noshorter: absent export clean", `Quick, noshorter_absent_export_clean);
    ("noshorter: detects favouritism", `Quick, noshorter_detects_favouritism);
    ("noshorter: own vector mismatch", `Quick, noshorter_own_vector_mismatch);
    noshorter_property;
    noshorter_bits_are_own_length;
    ("noshorter: one RSA sign per round", `Quick, noshorter_one_sign);
    ("leakage: PVR beneficiary zero excess", `Quick, leakage_pvr_beneficiary_zero_excess);
    ("leakage: PVR provider zero excess", `Quick, leakage_pvr_provider_zero_excess);
    ("leakage: NetReview leaks", `Quick, leakage_netreview_leaks);
    ("leakage: bits derivable from export", `Quick, leakage_bits_derivable_from_export);
    ("leakage: foreign route not derivable", `Quick, leakage_foreign_route_not_derivable);
  ]
