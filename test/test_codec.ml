(* One table for every decoder of untrusted bytes.  Each row names a
   decoder, a generator of valid values and their encoder; its test checks
   that decoding an encoding gives the value back, that decoding a
   Fuzz-mangled encoding (plus any kept seed inputs) or pure random bytes
   never raises, and that the row's well-framed but invalid inputs are
   refused.  Below the table: a differential between the Codec list
   reader and the reference loop every decoder used to hand-roll, and the
   operator decoder's negative-AS cases. *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg
module C = Pvr_crypto
module Codec = Pvr_crypto.Codec
module N = Pvr_net
module Row = Pvr_query.Row
module Frame = Pvr_query.Frame
module Protocol = Pvr_serve.Protocol
module Gen = QCheck2.Gen

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- the table ------------------------------------------------------------ *)

type row =
  | Row : {
      name : string;
      count : int;
      gen : 'a Gen.t;
      encode : 'a -> string;
      decode : string -> 'b option;
      same : 'a -> 'b -> bool;  (** the decoded value is the encoded one *)
      seeds : string list Lazy.t;
          (** further fixed inputs to mangle, such as real signed samples *)
      rejects : string list Lazy.t;
          (** well-framed inputs the decoder must refuse *)
    }
      -> row

let row ?(count = 100) ?(seeds = lazy []) ?(rejects = lazy []) ?(equal = ( = ))
    name gen ~encode ~decode =
  Row { name; count; gen; encode; decode; same = equal; seeds; rejects }

(* Arbitrary bytes, short and long. *)
let random_bytes =
  Gen.(oneof [ string; string_size ~gen:char (int_bound 64) ])

let never_raises name decode s =
  match decode s with
  | _ -> true
  | exception e ->
      Printf.eprintf "%s raised %s\n" name (Printexc.to_string e);
      false

let row_test (Row r) =
  qtest ~count:r.count r.name
    Gen.(triple r.gen (int_bound 1_000_000) random_bytes)
    (fun (x, seed, junk) ->
      let rng = C.Drbg.of_int_seed seed in
      let enc = r.encode x in
      (match r.decode enc with
      | Some y when r.same x y -> ()
      | _ -> QCheck2.Test.fail_reportf "%s: encoding did not round-trip" r.name);
      List.for_all
        (fun s -> never_raises r.name r.decode (N.Fuzz.mangle rng s))
        (enc :: Lazy.force r.seeds)
      && never_raises r.name r.decode junk
      && List.for_all
           (fun s -> never_raises r.name r.decode s && r.decode s = None)
           (Lazy.force r.rejects))

let of_result decode s = Result.to_option (decode s)

(* ---- generators ----------------------------------------------------------- *)

let u32 = Gen.int_bound 0xFFFF_FFFF
let small = Gen.int_bound 1000
let asn = Gen.map G.Asn.of_int (Gen.int_bound 70_000)

let prefix =
  Gen.(
    map2
      (fun addr len -> G.Prefix.make ~addr ~len)
      (int_bound 0xFFFF_FFFF) (int_bound 32))

let digest = Gen.string_size ~gen:Gen.char (Gen.return 32)
let blob = Gen.string_size ~gen:Gen.char (Gen.int_bound 40)
let items g = Gen.list_size (Gen.int_bound 5) g

let route =
  let open Gen in
  let+ prefix = prefix
  and+ as_path = items asn
  and+ next_hop = asn
  and+ local_pref = small
  and+ med = small
  and+ origin = oneofl G.Route.[ Igp; Egp; Incomplete ]
  and+ communities = items (pair (int_bound 65535) (int_bound 65535)) in
  { G.Route.prefix; as_path; next_hop; local_pref; med; origin; communities }

let announce =
  Gen.map3
    (fun ann_epoch ann_to ann_route -> { P.Wire.ann_epoch; ann_to; ann_route })
    small asn route

let commit =
  let open Gen in
  let+ cmt_epoch = small
  and+ cmt_prefix = prefix
  and+ cmt_scheme = oneofl [ "min"; "exists"; "graph"; "noshorter" ]
  and+ cmt_commitments = items digest in
  { P.Wire.cmt_epoch; cmt_prefix; cmt_scheme; cmt_commitments }

(* Signed statements are built the way a receiver gets them: decoded from
   transport bytes.  The signature bytes are arbitrary; decoding never
   verifies. *)
let signed_of ~encode ~decode payload signer signature =
  Option.get
    (P.Wire.decode_signed ~decode
       (Codec.encode_list
          [
            encode payload; C.Bytes_util.be32 (G.Asn.to_int signer); signature;
          ]))

let signed_with ~encode ~decode payload =
  Gen.map3 (signed_of ~encode ~decode) payload asn blob

let signed_announce =
  signed_with ~encode:P.Wire.encode_announce ~decode:P.Wire.decode_announce
    announce

let export =
  let open Gen in
  let+ exp_epoch = small
  and+ exp_to = asn
  and+ exp_route = route
  and+ exp_provenance = opt signed_announce in
  { P.Wire.exp_epoch; exp_to; exp_route; exp_provenance }

let signed_commit =
  signed_with ~encode:P.Wire.encode_commit ~decode:P.Wire.decode_commit commit

let signed_export =
  signed_with ~encode:P.Wire.encode_export ~decode:P.Wire.decode_export export

let opening =
  Gen.map2 (fun value nonce -> { C.Commitment.value; nonce }) blob digest

let indexed = items (Gen.pair small opening)

let prefix_tree_proof =
  Gen.map
    (fun ds ->
      Option.get
        (Pvr_merkle.Prefix_tree.decode_proof (Codec.encode_list ds)))
    (items digest)

let disclosure =
  let open Gen in
  let component =
    map2 (fun gc_raw gc_opening -> { P.Evidence.gc_raw; gc_opening }) blob
      opening
  in
  let+ gd_vertex = blob
  and+ gd_leaf = blob
  and+ gd_proof = prefix_tree_proof
  and+ gd_preds = opt component
  and+ gd_succs = opt component
  and+ gd_payload = opt component
  and+ gd_bits = indexed in
  { P.Evidence.gd_vertex; gd_leaf; gd_proof; gd_preds; gd_succs; gd_payload;
    gd_bits }

let offence =
  let open Gen in
  oneof
    [
      map2
        (fun var witness -> P.Evidence.Wrong_input_value { var; witness })
        blob signed_announce;
      map3
        (fun op index witness ->
          P.Evidence.False_evidence_bit { op; index; witness })
        blob small signed_announce;
      map3
        (fun out_var op detail ->
          P.Evidence.Output_evidence_mismatch { out_var; op; detail })
        blob blob blob;
      map2
        (fun out_var export -> P.Evidence.Export_not_committed { out_var; export })
        blob signed_export;
    ]

let claim =
  let open Gen in
  let sc = signed_commit in
  oneof
    [
      map3
        (fun commit openings claimant ->
          P.Evidence.Missing_export_claim { commit; openings; claimant })
        sc indexed asn;
      map3
        (fun commit announce claimant ->
          P.Evidence.Missing_disclosure_claim { commit; announce; claimant })
        sc signed_announce asn;
    ]

let evidence =
  let open Gen in
  let sc = signed_commit and se = signed_export in
  let direct =
    [
      map2 (fun first second -> P.Evidence.Equivocation { first; second }) sc sc;
      (let+ commit = sc
       and+ index = small
       and+ opening = opening
       and+ witness = signed_announce in
       P.Evidence.False_bit { commit; index; opening; witness });
      (let+ commit = sc
       and+ set_index = small
       and+ set_opening = opening
       and+ unset_index = small
       and+ unset_opening = opening in
       P.Evidence.Non_monotonic_bits
         { commit; set_index; set_opening; unset_index; unset_opening });
      (let+ commit = sc
       and+ export = se
       and+ index = small
       and+ opening = opening in
       P.Evidence.Nonminimal_export { commit; export; index; opening });
      map3
        (fun commit export openings ->
          P.Evidence.Unsupported_export { commit; export; openings })
        sc se indexed;
      map (fun export -> P.Evidence.Bad_provenance { export }) se;
      (let+ commit = sc
       and+ disclosures = items disclosure
       and+ offence = offence in
       P.Evidence.Graph_violation { commit; disclosures; offence });
      (let+ commit = sc
       and+ my_export = se
       and+ bit_index = small
       and+ opening = opening in
       P.Evidence.Own_vector_mismatch { commit; my_export; bit_index; opening });
      claim;
      map2
        (fun claim retries -> P.Evidence.Timeout { claim; retries })
        claim small;
    ]
  in
  oneof direct

let operator =
  let open Gen in
  oneof
    [
      oneofl R.Operator.[ Exists; Min_path_length; Shorter_of ];
      map (fun n -> R.Operator.Within_hops_of_min n) (int_range (-3) 20);
    ]

let merkle_proof =
  Gen.map2
    (fun index path -> { Pvr_baselines.Merkle_tree.index; path })
    u32
    (items (Gen.pair digest (Gen.oneofl [ `Left; `Right ])))

(* Canonical ring-signature encodings: minimal big-endian x_i (no leading
   zero byte), glue exactly [domain] bytes. *)
let ring_signature =
  let open Gen in
  let x =
    map2
      (fun c rest -> String.make 1 (Char.chr c) ^ rest)
      (int_range 1 255) blob
  in
  let* domain = int_range 1 40 in
  let+ glue = string_size ~gen:char (return domain) and+ xs = items x in
  Option.get
    (C.Ring_signature.decode
       (Codec.encode_list (C.Bytes_util.be32 domain :: glue :: xs)))

let row_value =
  let open Gen in
  let+ r_epoch = small
  and+ r_prover = small
  and+ r_prefix = prefix
  and+ r_beneficiary = small
  and+ r_providers = items small
  and+ r_behaviour = oneofl (List.map P.Adversary.to_string P.Adversary.all)
  and+ r_detected = bool
  and+ r_convicted = bool
  and+ r_evidence = small
  and+ r_kinds = items blob
  and+ r_leaked = small
  and+ r_excess = small in
  {
    Row.r_epoch;
    r_prover;
    r_addr = r_prefix.G.Prefix.addr;
    r_len = r_prefix.G.Prefix.len;
    r_beneficiary;
    r_providers;
    r_behaviour;
    r_detected;
    r_convicted;
    r_evidence;
    r_kinds;
    r_leaked;
    r_excess;
  }

(* The epoch record the store test pinned, and random ones. *)
let fixed_epoch_record =
  {
    Frame.er_epoch = 3;
    er_period = 1;
    er_changes = 2;
    er_msgs = 17;
    er_vertices = 9;
    er_dirty = 4;
    er_skipped = 5;
    er_detected = 0;
    er_convicted = 0;
    er_digest = String.make 64 'd';
    er_rib = String.make 64 'r';
    er_run_id = String.make 64 'i';
  }

let epoch_record =
  let open Gen in
  let random =
    let+ er_epoch = small
    and+ er_period = small
    and+ er_changes = small
    and+ er_msgs = small
    and+ er_vertices = small
    and+ er_dirty = small
    and+ er_skipped = small
    and+ er_detected = small
    and+ er_convicted = small
    and+ er_digest = blob
    and+ er_rib = blob
    and+ er_run_id = blob in
    {
      Frame.er_epoch;
      er_period;
      er_changes;
      er_msgs;
      er_vertices;
      er_dirty;
      er_skipped;
      er_detected;
      er_convicted;
      er_digest;
      er_rib;
      er_run_id;
    }
  in
  oneof [ return fixed_epoch_record; random ]

let frame =
  let open Gen in
  oneof
    [
      map (fun er -> Frame.Epoch er) epoch_record;
      map3
        (fun rf_run_id rf_epoch rf_rows ->
          Frame.Rows { rf_run_id; rf_epoch; rf_rows })
        blob small (items row_value);
      map2 (fun pf_run_id pf_blob -> Frame.Page { pf_run_id; pf_blob }) blob blob;
    ]

let params =
  let open Gen in
  let+ p_seed = u32
  and+ p_tiers = oneofl [ "1,2,4"; "2,3"; "" ]
  and+ p_peering = float_bound_inclusive 1.0
  and+ p_ases = small
  and+ p_gen_seed = opt small
  and+ p_epochs = small
  and+ p_jobs = int_range 1 8
  and+ p_intern = bool
  and+ p_bits = oneofl [ 512; 1024 ]
  and+ p_cache = bool
  and+ p_salt_every = small
  and+ p_turnover = float_bound_inclusive 1.0
  and+ p_origins = small
  and+ p_ppo = small
  and+ p_anycast = small
  and+ p_drop = float_bound_inclusive 1.0
  and+ p_strategy = oneofl P.Adversary.all_strategies
  and+ p_mem_ceiling = u32 in
  {
    Pvr_serve.Workload.p_seed;
    p_tiers;
    p_peering;
    p_ases;
    p_gen_seed;
    p_epochs;
    p_jobs;
    p_intern;
    p_bits;
    p_cache;
    p_salt_every;
    p_turnover;
    p_origins;
    p_ppo;
    p_anycast;
    p_drop;
    p_strategy;
    p_mem_ceiling;
  }

let request =
  let open Gen in
  oneof
    [
      return Protocol.Ping;
      map (fun p -> Protocol.Open_session p) params;
      map (fun n -> Protocol.Run_epochs n) u32;
      map3
        (fun q_text q_viewer q_json -> Protocol.Query { q_text; q_viewer; q_json })
        blob u32 bool;
      return Protocol.Stats;
      map (fun n -> Protocol.Stall n) u32;
      map (fun n -> Protocol.Close_session n) u32;
    ]

let response =
  let open Gen in
  oneof
    [
      return Protocol.Ok_r;
      return Protocol.Busy;
      map (fun e -> Protocol.Err e) blob;
      map (fun n -> Protocol.Session n) u32;
      (let+ v_epoch = u32
       and+ v_changes = u32
       and+ v_dirty = u32
       and+ v_detected = u32
       and+ v_convicted = u32
       and+ v_digest = blob in
       Protocol.Verdict
         { v_epoch; v_changes; v_dirty; v_detected; v_convicted; v_digest });
      map2
        (fun d_digest d_convicted -> Protocol.Done { d_digest; d_convicted })
        blob u32;
      (let+ st_sessions = u32
       and+ st_inflight = u32
       and+ st_queue_depth = u32
       and+ st_queue_cap = u32
       and+ st_workers = u32
       and+ st_draining = bool
       and+ st_world_hits = u32
       and+ st_world_misses = u32
       and+ st_world_keys = u32
       and+ st_sha256_accelerated = bool in
       Protocol.Stats_r
         {
           st_sessions;
           st_inflight;
           st_queue_depth;
           st_queue_cap;
           st_workers;
           st_draining;
           st_world_hits;
           st_world_misses;
           st_world_keys;
           st_sha256_accelerated;
         });
      map (fun rows -> Protocol.Rows rows) (items blob);
    ]

(* ---- rows ----------------------------------------------------------------- *)

(* The corpus of the transport fuzz test: signed samples and evidence. *)
let net_corpus =
  lazy
    (let ann = Test_net.sample_announce ()
     and cmt = Test_net.sample_commit ()
     and exp = Test_net.sample_export () in
     [
       P.Wire.encode_announce ann.P.Wire.payload;
       P.Wire.encode_commit cmt.P.Wire.payload;
       P.Wire.encode_export exp.P.Wire.payload;
       P.Wire.encode_signed ~encode:P.Wire.encode_announce ann;
       P.Wire.encode_signed ~encode:P.Wire.encode_commit cmt;
       P.Wire.encode_signed ~encode:P.Wire.encode_export exp;
     ]
     @ List.map P.Evidence_codec.encode (Test_net.sample_evidence ()))

(* Well-framed evidence under a retired tag: promise 4's cross-vector
   evidence, gone since promise 4 commits one vector over all exports. *)
let retired_tags =
  lazy
    [
      Codec.encode_list
        [
          "cross-shorter";
          P.Wire.encode_signed ~encode:P.Wire.encode_commit
            (Test_net.sample_commit ());
          P.Wire.encode_signed ~encode:P.Wire.encode_export
            (Test_net.sample_export ());
          C.Bytes_util.be32 0;
          Codec.encode_list [ "\001"; String.make 16 'n' ];
        ];
    ]

let wire_rows =
  let seeds = net_corpus in
  let signed_row name gen ~encode ~decode =
    row ~seeds ("Wire.decode_signed " ^ name) gen
      ~encode:(P.Wire.encode_signed ~encode)
      ~decode:(P.Wire.decode_signed ~decode)
  in
  [
    row ~seeds "Wire.decode_announce" announce ~encode:P.Wire.encode_announce
      ~decode:P.Wire.decode_announce;
    row ~seeds "Wire.decode_commit" commit ~encode:P.Wire.encode_commit
      ~decode:P.Wire.decode_commit;
    row ~seeds "Wire.decode_export" export ~encode:P.Wire.encode_export
      ~decode:P.Wire.decode_export;
    row "Wire.decode_route" route ~encode:G.Route.encode
      ~decode:P.Wire.decode_route;
    signed_row "announce" signed_announce ~encode:P.Wire.encode_announce
      ~decode:P.Wire.decode_announce;
    signed_row "commit" signed_commit ~encode:P.Wire.encode_commit
      ~decode:P.Wire.decode_commit;
    signed_row "export" signed_export ~encode:P.Wire.encode_export
      ~decode:P.Wire.decode_export;
    row ~seeds "Evidence_codec.decode" evidence ~encode:P.Evidence_codec.encode
      ~decode:P.Evidence_codec.decode ~rejects:retired_tags;
    row ~seeds "Evidence_codec.of_hex" evidence ~encode:P.Evidence_codec.to_hex
      ~decode:P.Evidence_codec.of_hex;
  ]

let proof_rows =
  let module PG = P.Proto_graph in
  [
    row "Codec.decode_list" (items blob) ~encode:Codec.encode_list
      ~decode:(fun s -> Codec.decode_list s Fun.id);
    Row
      {
        name = "Proto_graph.decode_var_payload";
        count = 100;
        gen = items route;
        encode = PG.encode_var_payload;
        decode = PG.decode_var_payload;
        same = (fun routes encs -> List.map G.Route.encode routes = encs);
        seeds = lazy [];
        rejects = lazy [];
      };
    Row
      {
        name = "Proto_graph.decode_op_payload";
        count = 100;
        gen = Gen.pair operator (items digest);
        encode = (fun (op, digests) -> PG.encode_op_payload op digests);
        decode = PG.decode_op_payload;
        same =
          (fun (op, digests) (enc, digests') ->
            R.Operator.encode op = enc && digests = digests');
        seeds = lazy [];
        rejects = lazy [];
      };
    row "Proto_graph.decode_comp_payload" digest ~encode:PG.encode_comp_payload
      ~decode:PG.decode_comp_payload;
    row "Proto_graph.leaf_digests" (Gen.triple digest digest digest)
      ~encode:(fun (a, b, c) -> Codec.encode_list [ a; b; c ])
      ~decode:PG.leaf_digests;
    row "Merkle_tree.decode_proof" merkle_proof
      ~encode:Pvr_baselines.Merkle_tree.encode_proof
      ~decode:Pvr_baselines.Merkle_tree.decode_proof;
    row "Prefix_tree.decode_proof" prefix_tree_proof
      ~encode:Pvr_merkle.Prefix_tree.encode_proof
      ~decode:Pvr_merkle.Prefix_tree.decode_proof;
    row "Ring_signature.decode" ring_signature ~encode:C.Ring_signature.encode
      ~decode:C.Ring_signature.decode
      ~equal:(fun a b -> C.Ring_signature.encode a = C.Ring_signature.encode b);
    row "Operator.decode" operator ~encode:R.Operator.encode
      ~decode:R.Operator.decode
      ~seeds:
        (lazy
          (List.map Codec.encode_list
             [
               [ "not-through"; "AS-5" ];
               [ "filter"; "nh=AS-1" ];
               [ "filter"; "inpath=AS-1" ];
             ]));
  ]

let encode_with f x =
  let buf = Buffer.create 256 in
  f buf x;
  Buffer.contents buf

(* A well-framed index-checkpoint payload: tag 3, which names no record,
   then a run id, an epoch and a blob. *)
let index_checkpoint_payload =
  let b = Buffer.create 64 in
  Codec.u32 b 3;
  Codec.str b "run";
  Codec.u32 b 2;
  Codec.str b "index blob";
  Buffer.contents b

(* A spill page as tag 4 wrote it: run id, then the vertex key nothing
   read, then the blob.  Pages are tag 5 now. *)
let keyed_page_payload =
  let b = Buffer.create 64 in
  Codec.u32 b 4;
  Codec.str b "run";
  Codec.str b "AS7|10.0.0.0/24";
  Codec.str b "page blob";
  Buffer.contents b

let store_rows =
  [
    row "Row.read" row_value ~encode:(encode_with Row.encode)
      ~decode:(of_result (fun s -> Codec.decode s Row.read));
    row "Frame.decode" frame
      ~encode:(function
        | Frame.Epoch er -> Frame.encode_epoch er
        | Frame.Rows rf -> Frame.encode_rows rf
        | Frame.Page pf -> Frame.encode_page pf)
      ~decode:(of_result Frame.decode)
      ~rejects:(lazy [ index_checkpoint_payload; keyed_page_payload ]);
    row "Frame.decode_epoch" epoch_record ~encode:Pvr_engine.Persist.encode_epoch
      ~decode:(of_result Pvr_engine.Persist.decode_epoch);
    row "Protocol.decode_request" request ~encode:Protocol.encode_request
      ~decode:(of_result Protocol.decode_request);
    row "Protocol.decode_response" response ~encode:Protocol.encode_response
      ~decode:(of_result Protocol.decode_response);
  ]

let table = wire_rows @ proof_rows @ store_rows

(* ---- the list reader against the loop it replaced ------------------------- *)

(* The reference oracle: the list loop that eight decoders each carried a
   copy of before [Codec.get_list]. *)
let reference_list s =
  let read_u32 pos =
    if pos + 4 > String.length s then None
    else Some (C.Bytes_util.read_be32 s pos, pos + 4)
  in
  match read_u32 0 with
  | None -> None
  | Some (count, pos) when count >= 0 && count <= String.length s ->
      let rec items n pos acc =
        if n = 0 then
          if pos = String.length s then Some (List.rev acc) else None
        else
          match read_u32 pos with
          | None -> None
          | Some (len, pos) ->
              if len < 0 || pos + len > String.length s then None
              else items (n - 1) (pos + len) (String.sub s pos len :: acc)
      in
      items count pos []
  | Some _ -> None

let list_reader_matches_reference =
  qtest ~count:500 "Codec list reader accepts what the old reader did"
    Gen.(
      oneof
        [
          random_bytes;
          map2
            (fun xs seed ->
              N.Fuzz.mangle (C.Drbg.of_int_seed seed) (Codec.encode_list xs))
            (items blob) (int_bound 1_000_000);
          map Codec.encode_list (items blob);
        ])
    (fun s -> Codec.decode_list s Fun.id = reference_list s)

(* A disclosed payload naming an operator PVR has no evidence bits for
   decodes to nothing a verifier could act on. *)
let operator_refuses_retired () =
  List.iter
    (fun items ->
      Alcotest.(check bool)
        (String.concat " " items) true
        (R.Operator.decode (Codec.encode_list items) = None))
    Test_pvr.retired_operators

(* An AS-numbered operator payload with a negative AS decodes to nothing. *)
let operator_rejects_negative_asn () =
  List.iter
    (fun items ->
      Alcotest.(check bool)
        (String.concat " " items) true
        (R.Operator.decode (Codec.encode_list items) = None))
    [
      [ "not-through"; "AS-5" ]; [ "filter"; "nh=AS-1" ]; [ "filter"; "inpath=AS-1" ];
    ]

let suite =
  List.map row_test table
  @ [
      list_reader_matches_reference;
      ("Operator.decode: negative AS is None", `Quick, operator_rejects_negative_asn);
      ("Operator.decode: retired operators are None", `Quick,
       operator_refuses_retired);
    ]
