module Bgp = Pvr_bgp
module C = Pvr_crypto
module Codec = Pvr_crypto.Codec
module Rfg = Pvr_rfg.Rfg
module Operator = Pvr_rfg.Operator
module Promise = Pvr_rfg.Promise
module Bitstring = Pvr_merkle.Bitstring
module Prefix_tree = Pvr_merkle.Prefix_tree

let scheme = "graph"

type component_opening = { raw : string; opening : C.Commitment.opening }

type disclosure = {
  vertex : Rfg.vertex_id;
  leaf : string;
  proof : Prefix_tree.proof;
  preds : component_opening option;
  succs : component_opening option;
  payload : component_opening option;
  bit_openings : (int * C.Commitment.opening) list;
}

(* ---- Payload encodings -------------------------------------------------- *)

let encode_id_list ids = Codec.encode_list ids

let encode_var_payload routes =
  Codec.encode_list ("var" :: List.map Bgp.Route.encode routes)

let encode_op_payload op bit_digests =
  Codec.encode_list [ "op"; Operator.encode op; Codec.encode_list bit_digests ]

(* Decode an op payload back into (operator-encoding, bit digests). *)
let decode_op_payload raw =
  Codec.decode_list raw (function
    | [ "op"; op_enc; digests_enc ] -> (op_enc, Codec.list digests_enc)
    | _ -> Codec.malformed "op payload")

let encode_comp_payload inner_root =
  Codec.encode_list [ "comp"; inner_root ]

let decode_comp_payload raw =
  Codec.decode_list raw (function
    | [ "comp"; root ] when String.length root = 32 -> root
    | _ -> Codec.malformed "comp payload")

let decode_var_payload raw =
  Codec.decode_list raw (function
    | "var" :: encs -> encs
    | _ -> Codec.malformed "var payload")

(* ---- Evidence bits per operator ----------------------------------------- *)

(* The §3.3 threshold bits of the routes feeding an operator.  For
   [Shorter_of] each input branch gets its own k-bit vector (indices
   1..k and k+1..2k); every other supported operator pools its inputs. *)
let evidence_bits ~k op (input_values : Bgp.Route.t list list) =
  let thresholds routes =
    let shortest =
      List.fold_left
        (fun acc r -> min acc (Bgp.Route.path_length r))
        max_int routes
    in
    List.init k (fun i -> shortest <= i + 1)
  in
  match op with
  | Operator.Exists -> [ List.concat input_values <> [] ]
  | Operator.Min_path_length | Operator.Within_hops_of_min _ ->
      (* Promise 3 reuses the §3.3 threshold bits: they pin down the minimum
         input length m, and the viewer checks |exported| ≤ m + n. *)
      thresholds (List.concat input_values)
  | Operator.Shorter_of -> begin
      match input_values with
      | [ first; second ] -> thresholds first @ thresholds second
      | _ -> []
    end
  | Operator.Union | Operator.Best _ | Operator.Filter _
  | Operator.Not_through _ | Operator.Has_community _
  | Operator.First_nonempty ->
      []

type vertex_record = {
  vr_id : Rfg.vertex_id;
  vr_preds_raw : string;
  vr_succs_raw : string;
  vr_payload_raw : string;
  vr_preds_open : C.Commitment.opening;
  vr_succs_open : C.Commitment.opening;
  vr_payload_open : C.Commitment.opening;
  vr_leaf : string;
  vr_bits : (bool * C.Commitment.opening) array; (* 0-based storage *)
  vr_inner : subtree option; (* composite internals (§4 structural privacy) *)
}

and subtree = {
  sub_records : (Rfg.vertex_id * vertex_record) list;
  sub_tree : Prefix_tree.t;
  sub_root : string;
}

type committed = { rfg : Rfg.t; k : int; top : subtree }

type draft = {
  dr_prover : Bgp.Asn.t;
  dr_beneficiary : Bgp.Asn.t;
  dr_epoch : Wire.epoch;
  dr_prefix : Bgp.Prefix.t;
  dr_inputs : (Bgp.Asn.t * Bgp.Route.t) list;
  dr_alpha : Access_control.t;
  dr_committed : committed;
  dr_export : Proto_min.export_plan option;
}

let commit_component rng raw =
  let c, opening = C.Commitment.commit rng raw in
  ((c :> string), opening)

(* Build the commitment records for one graph level; composites recurse
   with their vertex ids namespaced ["outer/inner"], each level in its own
   blinded tree. *)
let rec build_subtree rng ~k ~ns rfg valuation =
  let ns_id id = if ns = "" then id else ns ^ "/" ^ id in
  let record id =
    let preds_raw = encode_id_list (List.map ns_id (Rfg.predecessors rfg id)) in
    let succs_raw = encode_id_list (List.map ns_id (Rfg.successors rfg id)) in
    let payload_raw, bits, inner =
      match Rfg.operator_of rfg id with
      | Some op ->
          let input_values =
            List.map (Rfg.value valuation) (Rfg.inputs_of_op rfg id)
          in
          let bits = evidence_bits ~k op input_values in
          let committed = List.map (C.Commitment.commit_bit rng) bits in
          let digests =
            List.map
              (fun ((c : C.Commitment.commitment), _) -> (c :> string))
              committed
          in
          ( encode_op_payload op digests,
            Array.of_list
              (List.map2 (fun b (_, o) -> (b, o)) bits committed),
            None )
      | None -> begin
          match Rfg.composite_of rfg id with
          | Some inner_rfg ->
              (* Evaluate the inner graph on this composite's input values
                 (positional binding in lexicographic inner-id order, the
                 Rfg.add_composite contract) and commit it as a nested
                 tree; the payload reveals only the inner root. *)
              let in_values =
                List.map (Rfg.value valuation) (Rfg.inputs_of_op rfg id)
              in
              let inner_inputs = List.map fst (Rfg.input_vars inner_rfg) in
              let seeded = List.combine inner_inputs in_values in
              let inner_val = Rfg.eval inner_rfg ~inputs:seeded in
              let sub =
                build_subtree rng ~k ~ns:(ns_id id) inner_rfg inner_val
              in
              (encode_comp_payload sub.sub_root, [||], Some sub)
          | None -> (encode_var_payload (Rfg.value valuation id), [||], None)
        end
    in
    let c_preds, o_preds = commit_component rng preds_raw in
    let c_succs, o_succs = commit_component rng succs_raw in
    let c_payload, o_payload = commit_component rng payload_raw in
    {
      vr_id = ns_id id;
      vr_preds_raw = preds_raw;
      vr_succs_raw = succs_raw;
      vr_payload_raw = payload_raw;
      vr_preds_open = o_preds;
      vr_succs_open = o_succs;
      vr_payload_open = o_payload;
      vr_leaf = Codec.encode_list [ c_preds; c_succs; c_payload ];
      vr_bits = bits;
      vr_inner = inner;
    }
  in
  let records = List.map (fun id -> (ns_id id, record id)) (Rfg.vertex_ids rfg) in
  let seed = C.Drbg.generate rng 32 in
  let tree =
    Prefix_tree.build ~seed
      (List.map (fun (nid, r) -> (Bitstring.of_id nid, r.vr_leaf)) records)
  in
  { sub_records = records; sub_tree = tree; sub_root = Prefix_tree.root tree }

let draft ~max_path_len rng ~prover ~beneficiary ~epoch ~prefix ~rfg ~alpha
    ~inputs =
  Pvr_obs.with_span "proto_graph.draft" @@ fun () ->
  (* Seed each input variable named after its neighbor. *)
  let seeded =
    List.filter_map
      (fun (id, asn) ->
        match
          List.filter_map
            (fun (n, route) -> if Bgp.Asn.equal n asn then Some route else None)
            inputs
        with
        | [] -> None
        | routes -> Some (id, routes))
      (Rfg.input_vars rfg)
  in
  let valuation = Rfg.eval rfg ~inputs:seeded in
  let top = build_subtree rng ~k:max_path_len ~ns:"" rfg valuation in
  (* Operators only select routes, so B's output is an input's route and
     that input is its provenance. *)
  let export =
    List.find_map
      (fun (id, asn) ->
        match Rfg.value valuation id with
        | route :: _ when Bgp.Asn.equal asn beneficiary ->
            Option.map
              (fun (n, _) -> (route, Proto_min.Input n))
              (List.find_opt (fun (_, r) -> Bgp.Route.equal r route) inputs)
        | _ -> None)
      (Rfg.output_vars rfg)
  in
  {
    dr_prover = prover;
    dr_beneficiary = beneficiary;
    dr_epoch = epoch;
    dr_prefix = prefix;
    dr_inputs = inputs;
    dr_alpha = alpha;
    dr_committed = { rfg; k = max_path_len; top };
    dr_export = export;
  }

let root d = d.dr_committed.top.sub_root

(* Which evidence-bit indices a provider is entitled to for an operator it
   feeds: the bit at its own route length, offset into the branch that its
   variable occupies for [Shorter_of]. *)
let provider_bit_indices c op_id ~provider_var ~route_len =
  match Rfg.operator_of c.rfg op_id with
  | None -> []
  | Some Operator.Exists -> [ 1 ]
  | Some (Operator.Min_path_length | Operator.Within_hops_of_min _) ->
      if route_len <= c.k then [ route_len ] else []
  | Some Operator.Shorter_of -> begin
      match Rfg.inputs_of_op c.rfg op_id with
      | [ first; _second ] ->
          if route_len > c.k then []
          else if String.equal first provider_var then [ route_len ]
          else [ c.k + route_len ]
      | _ -> []
    end
  | Some _ -> []

(* Everything α lets [viewer] see of one tree level, authenticated
   against its root; [bits] picks a visible operator's bit openings. *)
let disclose_level sub ~alpha ~viewer ~bits =
  List.filter_map
    (fun (id, r) ->
      let want comp = Access_control.permits alpha ~viewer id comp in
      let preds_ok = want Access_control.Preds in
      let succs_ok = want Access_control.Succs in
      let payload_ok = want Access_control.Payload in
      let comp ok raw opening = if ok then Some { raw; opening } else None in
      if not (preds_ok || succs_ok || payload_ok) then None
      else
        Option.map
          (fun (leaf, proof) ->
            {
              vertex = id;
              leaf;
              proof;
              preds = comp preds_ok r.vr_preds_raw r.vr_preds_open;
              succs = comp succs_ok r.vr_succs_raw r.vr_succs_open;
              payload = comp payload_ok r.vr_payload_raw r.vr_payload_open;
              bit_openings =
                (if payload_ok && Array.length r.vr_bits > 0 then bits id r
                 else []);
            })
          (Prefix_tree.prove sub.sub_tree (Bitstring.of_id id)))
    sub.sub_records

let all_bits _ r =
  Array.to_list (Array.mapi (fun i (_, o) -> (i + 1, o)) r.vr_bits)

let disclose ?role d ~alpha ~viewer =
  let c = d.dr_committed in
  (* Evidence bits are disclosed by protocol role, not by α: the
     beneficiary receives every bit of an operator it may see (§3.3: "A
     also reveals all the bits b_i to B"), a provider only the bit at its
     own route length. *)
  let bits id r =
    match role with
    | None | Some `Beneficiary -> all_bits id r
    | Some (`Provider route_len) ->
        List.filter_map
          (fun i ->
            if i >= 1 && i <= Array.length r.vr_bits then
              Some (i, snd r.vr_bits.(i - 1))
            else None)
          (provider_bit_indices c id ~provider_var:(Promise.input_var viewer)
             ~route_len)
  in
  disclose_level c.top ~alpha ~viewer ~bits

(* ---- Verification ------------------------------------------------------- *)

let leaf_digests leaf =
  Codec.decode_list leaf (function
    | [ c_preds; c_succs; c_payload ]
      when List.for_all
             (fun d -> String.length d = 32)
             [ c_preds; c_succs; c_payload ] ->
        (c_preds, c_succs, c_payload)
    | _ -> Codec.malformed "leaf digests")

let component_valid digest (c : component_opening) =
  String.length digest = 32
  && C.Commitment.verify (C.Commitment.of_raw digest) c.opening
  && String.equal c.opening.C.Commitment.value c.raw

let check_disclosure_integrity ~root d =
  Prefix_tree.verify ~root ~path:(Bitstring.of_id d.vertex) ~value:d.leaf
    d.proof
  &&
  match leaf_digests d.leaf with
  | None -> false
  | Some (c_preds, c_succs, c_payload) ->
      (match d.preds with
      | None -> true
      | Some c -> component_valid c_preds c)
      && (match d.succs with
         | None -> true
         | Some c -> component_valid c_succs c)
      && (match d.payload with
         | None -> true
         | Some c -> component_valid c_payload c)
      &&
      (* Bit openings check against digests embedded in the payload. *)
      (match d.payload with
      | Some c when d.bit_openings <> [] -> begin
          match decode_op_payload c.raw with
          | None -> false
          | Some (_, digests) ->
              List.for_all
                (fun (i, o) ->
                  i >= 1
                  && i <= List.length digests
                  && C.Commitment.verify
                       (C.Commitment.of_raw (List.nth digests (i - 1)))
                       o)
                d.bit_openings
        end
      | _ -> d.bit_openings = [])

let to_evidence_disclosure d =
  let comp = Option.map (fun c -> { Evidence.gc_raw = c.raw; gc_opening = c.opening }) in
  {
    Evidence.gd_vertex = d.vertex;
    gd_leaf = d.leaf;
    gd_proof = d.proof;
    gd_preds = comp d.preds;
    gd_succs = comp d.succs;
    gd_payload = comp d.payload;
    gd_bits = d.bit_openings;
  }

let graph_violation commit ds offence =
  Evidence.Graph_violation
    { commit; disclosures = List.map to_evidence_disclosure ds; offence }

let bit_value d i =
  match List.assoc_opt i d.bit_openings with
  | None -> None
  | Some o -> C.Commitment.opening_bit o

let find_disclosure ds id = List.find_opt (fun d -> d.vertex = id) ds

(* First index in [lo..hi] whose bit opens to 1. *)
let first_set_bit d ~lo ~hi =
  let rec go i =
    if i > hi then None
    else
      match bit_value d (i) with
      | Some true -> Some (i - lo + 1)
      | _ -> go (i + 1)
  in
  go lo

(* Which evidence-bit indices a route of length [len] from variable [var]
   forces to 1 for the operator disclosed as [od].  Mirrors
   [provider_bit_indices], but derived purely from disclosed data. *)
let forced_bit_indices od ~var ~len =
  match od.payload with
  | None -> []
  | Some pc -> begin
      match decode_op_payload pc.raw with
      | None -> []
      | Some (op_enc, digests) -> begin
          let k2 = List.length digests in
          match Operator.decode op_enc with
          | Some Operator.Exists -> [ 1 ]
          | Some (Operator.Min_path_length | Operator.Within_hops_of_min _) ->
              if len <= k2 then [ len ] else []
          | Some Operator.Shorter_of -> begin
              let k = k2 / 2 in
              let branch =
                match od.preds with
                | Some c -> begin
                    match Codec.decode_list c.raw Fun.id with
                    | Some [ first; _ ] when first = var -> 0
                    | Some [ _; second ] when second = var -> 1
                    | _ -> -1
                  end
                | None -> -1
              in
              if branch >= 0 && len <= k then [ (branch * k) + len ] else []
            end
          | _ -> []
        end
    end

let check_provider keyring ~me ~my_announce ~commit ~disclosures =
  ignore keyring;
  let root =
    match commit.Wire.payload.Wire.cmt_commitments with
    | [ r ] -> r
    | _ -> ""
  in
  let bad_integrity =
    List.exists
      (fun d -> not (check_disclosure_integrity ~root d))
      disclosures
  in
  let claim () =
    [
      Evidence.Missing_disclosure_claim
        { commit; announce = my_announce; claimant = me };
    ]
  in
  if bad_integrity then claim ()
  else begin
    let my_var = Promise.input_var me in
    let my_route = my_announce.Wire.payload.Wire.ann_route in
    match find_disclosure disclosures my_var with
    | None -> claim ()
    | Some d -> begin
        match d.payload with
        | None -> claim ()
        | Some c -> begin
            match decode_var_payload c.raw with
            | None -> claim ()
            | Some encs ->
                if not (List.mem (Bgp.Route.encode my_route) encs) then
                  [
                    graph_violation commit [ d ]
                      (Evidence.Wrong_input_value
                         { var = my_var; witness = my_announce });
                  ]
                else begin
                  (* Follow succs to the consuming operators and check their
                     evidence bits at my route length. *)
                  let consumers =
                    match d.succs with
                    | None -> []
                    | Some c ->
                        Option.value (Codec.decode_list c.raw Fun.id) ~default:[]
                  in
                  let len = Bgp.Route.path_length my_route in
                  List.concat_map
                    (fun op_id ->
                      match find_disclosure disclosures op_id with
                      | None -> claim ()
                      | Some od -> begin
                          match od.payload with
                          | None -> claim ()
                          | Some pc -> begin
                              match decode_op_payload pc.raw with
                              | None -> claim ()
                              | Some (_op_enc, _digests) ->
                                  let indices =
                                    forced_bit_indices od ~var:my_var ~len
                                  in
                                  List.concat_map
                                    (fun i ->
                                      match bit_value od i with
                                      | Some true -> []
                                      | Some false ->
                                          [
                                            graph_violation commit [ od ]
                                              (Evidence.False_evidence_bit
                                                 {
                                                   op = op_id;
                                                   index = i;
                                                   witness = my_announce;
                                                 });
                                          ]
                                      | None -> claim ())
                                    indices
                            end
                        end)
                    consumers
                end
          end
      end
  end

(* Expected output length for an operator given its disclosed evidence
   bits: [None] = no route expected. *)
let expected_output_len op_enc ~nbits d =
  match Operator.decode op_enc with
  | Some Operator.Exists -> begin
      match bit_value d 1 with
      | Some true -> `Some_route
      | Some false -> `No_route
      | None -> `Unknown
    end
  | Some Operator.Min_path_length -> begin
      match first_set_bit d ~lo:1 ~hi:nbits with
      | Some l -> `Len l
      | None -> `No_route
    end
  | Some (Operator.Within_hops_of_min n) -> begin
      (* Promise 3: the exported route may be up to n hops beyond the
         committed minimum. *)
      match first_set_bit d ~lo:1 ~hi:nbits with
      | Some l -> `Len_between (l, l + n)
      | None -> `No_route
    end
  | Some Operator.Shorter_of -> begin
      let k = nbits / 2 in
      let m1 = first_set_bit d ~lo:1 ~hi:k in
      let m2 = first_set_bit d ~lo:(k + 1) ~hi:(2 * k) in
      match (m1, m2) with
      | None, None -> `No_route
      | Some l, None -> `Len l
      | None, Some l -> `Len l
      | Some l1, Some l2 -> `Len (if l1 < l2 then l1 else l2)
    end
  | _ -> `Unknown

let check_beneficiary keyring ~me ~commit ~disclosures ~export =
  let root =
    match commit.Wire.payload.Wire.cmt_commitments with
    | [ r ] -> r
    | _ -> ""
  in
  let claim () =
    [
      Evidence.Missing_export_claim { commit; openings = []; claimant = me };
    ]
  in
  if
    List.exists
      (fun d -> not (check_disclosure_integrity ~root d))
      disclosures
  then claim ()
  else begin
    let out_var = Promise.output_var me in
    match find_disclosure disclosures out_var with
    | None -> claim ()
    | Some out_d -> begin
        let out_routes =
          match out_d.payload with
          | None -> None
          | Some c -> decode_var_payload c.raw
        in
        let producer =
          match out_d.preds with
          | None -> None
          | Some c -> begin
              match Codec.decode_list c.raw Fun.id with
              | Some [ op_id ] -> find_disclosure disclosures op_id
              | _ -> None
            end
        in
        match (out_routes, producer) with
        | None, _ | _, None -> claim ()
        | Some routes, Some op_d -> begin
            match op_d.payload with
            | None -> claim ()
            | Some pc -> begin
                match decode_op_payload pc.raw with
                | None -> claim ()
                | Some (op_enc, digests) -> begin
                    let issues = ref [] in
                    let violation ds offence =
                      issues := graph_violation commit ds offence :: !issues
                    in
                    let mismatch ds detail =
                      violation ds
                        (Evidence.Output_evidence_mismatch
                           { out_var; op = op_d.vertex; detail })
                    in
                    (* 1. Output value vs operator evidence. *)
                    (match
                       expected_output_len op_enc ~nbits:(List.length digests)
                         op_d
                     with
                    | `Unknown -> ()
                    | `No_route ->
                        if routes <> [] then
                          mismatch [ out_d; op_d ]
                            "evidence says no route, output is non-empty"
                    | `Some_route ->
                        if routes = [] then
                          mismatch [ out_d; op_d ]
                            "evidence says a route exists, output is empty"
                    | `Len l | `Len_between (l, _) ->
                        if routes = [] then
                          mismatch [ out_d; op_d ]
                            (Printf.sprintf
                               "evidence promises a route of length >= %d, \
                                output is empty"
                               l));
                    (* 2. Export consistency: the exported route must be the
                       (sole) committed output value. *)
                    (match export with
                    | None ->
                        if routes <> [] then issues := claim () @ !issues
                    | Some export -> begin
                        match
                          Proto_common.check_export_provenance keyring ~commit
                            ~beneficiary:me export
                        with
                        | Error e -> issues := e :: !issues
                        | Ok _ ->
                            let enc =
                              Bgp.Route.encode
                                export.Wire.payload.Wire.exp_route
                            in
                            if not (List.mem enc routes) then
                              violation [ out_d ]
                                (Evidence.Export_not_committed
                                   { out_var; export })
                            else begin
                              (* Length check against evidence. *)
                              match
                                expected_output_len op_enc
                                  ~nbits:(List.length digests) op_d
                              with
                              | `Len l ->
                                  if
                                    Bgp.Route.path_length
                                      export.Wire.payload.Wire.exp_route
                                    <> l
                                  then
                                    mismatch [ out_d; op_d ]
                                      (Printf.sprintf
                                         "exported route length %d does not \
                                          match evidence length %d"
                                         (Bgp.Route.path_length
                                            export.Wire.payload.Wire.exp_route)
                                         l)
                              | `Len_between (lo, hi) ->
                                  let len =
                                    Bgp.Route.path_length
                                      export.Wire.payload.Wire.exp_route
                                  in
                                  if len < lo || len > hi then
                                    mismatch [ out_d; op_d ]
                                      (Printf.sprintf
                                         "exported route length %d outside \
                                          the promised window [%d, %d]"
                                         len lo hi)
                              | _ -> ()
                            end
                      end);
                    List.rev !issues
                  end
              end
          end
      end
  end

(* ---- Third-party replay (used by Judge) --------------------------------- *)

let of_evidence_disclosure (gd : Evidence.graph_disclosure) =
  let comp =
    Option.map (fun (c : Evidence.graph_component) ->
        { raw = c.Evidence.gc_raw; opening = c.Evidence.gc_opening })
  in
  {
    vertex = gd.Evidence.gd_vertex;
    leaf = gd.Evidence.gd_leaf;
    proof = gd.Evidence.gd_proof;
    preds = comp gd.Evidence.gd_preds;
    succs = comp gd.Evidence.gd_succs;
    payload = comp gd.Evidence.gd_payload;
    bit_openings = gd.Evidence.gd_bits;
  }

let replay_offence keyring ~commit ~disclosures offence =
  let ds = List.map of_evidence_disclosure disclosures in
  let accused = commit.Wire.signer in
  let cp = commit.Wire.payload in
  let commit_ok =
    Wire.verify keyring ~encode:Wire.encode_commit commit
    && cp.Wire.cmt_scheme = scheme
  in
  match cp.Wire.cmt_commitments with
  | [ root ] when commit_ok ->
      let all_valid =
        List.for_all (check_disclosure_integrity ~root) ds
      in
      if not all_valid then false
      else begin
        match offence with
        | Evidence.Wrong_input_value { var; witness } -> begin
            match find_disclosure ds var with
            | None -> false
            | Some d -> begin
                match d.payload with
                | None -> false
                | Some c -> begin
                    match decode_var_payload c.raw with
                    | None -> false
                    | Some encs ->
                        not
                          (List.mem
                             (Bgp.Route.encode
                                witness.Wire.payload.Wire.ann_route)
                             encs)
                  end
              end
          end
        | Evidence.False_evidence_bit { op; index; witness } -> begin
            match find_disclosure ds op with
            | None -> false
            | Some od ->
                let len =
                  Bgp.Route.path_length witness.Wire.payload.Wire.ann_route
                in
                let var = Promise.input_var witness.Wire.signer in
                List.mem index (forced_bit_indices od ~var ~len)
                && bit_value od index = Some false
          end
        | Evidence.Output_evidence_mismatch { out_var; op; detail = _ } -> begin
            match (find_disclosure ds out_var, find_disclosure ds op) with
            | Some out_d, Some od -> begin
                match (out_d.payload, od.payload) with
                | Some oc, Some pc -> begin
                    match (decode_var_payload oc.raw, decode_op_payload pc.raw)
                    with
                    | Some routes, Some (op_enc, digests) -> begin
                        match
                          expected_output_len op_enc
                            ~nbits:(List.length digests) od
                        with
                        | `Unknown -> false
                        | `No_route -> routes <> []
                        | `Some_route | `Len _ | `Len_between _ -> routes = []
                      end
                    | _ -> false
                  end
                | _ -> false
              end
            | _ -> false
          end
        | Evidence.Export_not_committed { out_var; export } -> begin
            Wire.verify keyring ~encode:Wire.encode_export export
            && Bgp.Asn.equal export.Wire.signer accused
            && export.Wire.payload.Wire.exp_epoch = cp.Wire.cmt_epoch
            &&
            match find_disclosure ds out_var with
            | None -> false
            | Some d -> begin
                match d.payload with
                | None -> false
                | Some c -> begin
                    match decode_var_payload c.raw with
                    | None -> false
                    | Some routes ->
                        not
                          (List.mem
                             (Bgp.Route.encode
                                export.Wire.payload.Wire.exp_route)
                             routes)
                  end
              end
          end
      end
  | _ -> false

(* ---- Composite operators (§4 structural privacy) ------------------------- *)

let find_record d id = List.assoc_opt id d.dr_committed.top.sub_records

let composite_inner_root d ~composite =
  Option.bind (find_record d composite) (fun r ->
      Option.map (fun sub -> sub.sub_root) r.vr_inner)

let disclose_composite d ~alpha ~viewer ~composite =
  Option.bind (find_record d composite) (fun r ->
      Option.map
        (fun sub ->
          (sub.sub_root, disclose_level sub ~alpha ~viewer ~bits:all_bits))
        r.vr_inner)

let check_composite ~outer_root ~composite_disclosure ~inner_root ~inner =
  (* 1. The composite vertex itself authenticates against the outer tree and
     its payload commits to exactly [inner_root]. *)
  check_disclosure_integrity ~root:outer_root composite_disclosure
  && (match composite_disclosure.payload with
     | Some c -> decode_comp_payload c.raw = Some inner_root
     | None -> false)
  (* 2. Every inner disclosure authenticates against the inner root. *)
  && List.for_all (check_disclosure_integrity ~root:inner_root) inner
