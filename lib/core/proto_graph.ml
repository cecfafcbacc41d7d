module Bgp = Pvr_bgp
module C = Pvr_crypto
module Codec = Pvr_crypto.Codec
module Rfg = Pvr_rfg.Rfg
module Operator = Pvr_rfg.Operator
module Promise = Pvr_rfg.Promise
module Bitstring = Pvr_merkle.Bitstring
module Prefix_tree = Pvr_merkle.Prefix_tree

let scheme = "graph"

type component = Evidence.graph_component
type disclosure = Evidence.graph_disclosure

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
   1..k and k+1..2k); every other operator pools its inputs. *)
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

(* Everything α lets [viewer] see of one tree level, authenticated
   against its root; [bits] picks a visible operator's bit openings. *)
let disclose_level sub ~alpha ~viewer ~bits =
  List.filter_map
    (fun (id, r) ->
      let want comp = Access_control.permits alpha ~viewer id comp in
      let preds_ok = want Access_control.Preds in
      let succs_ok = want Access_control.Succs in
      let payload_ok = want Access_control.Payload in
      let comp ok gc_raw gc_opening =
        if ok then Some { Evidence.gc_raw; gc_opening } else None
      in
      if not (preds_ok || succs_ok || payload_ok) then None
      else
        Option.map
          (fun (gd_leaf, gd_proof) ->
            {
              Evidence.gd_vertex = id;
              gd_leaf;
              gd_proof;
              gd_preds = comp preds_ok r.vr_preds_raw r.vr_preds_open;
              gd_succs = comp succs_ok r.vr_succs_raw r.vr_succs_open;
              gd_payload = comp payload_ok r.vr_payload_raw r.vr_payload_open;
              gd_bits =
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

let component_valid digest (c : component) =
  String.length digest = 32
  && C.Commitment.verify (C.Commitment.of_raw digest) c.gc_opening
  && String.equal c.gc_opening.C.Commitment.value c.gc_raw

let check_disclosure_integrity ~root (d : disclosure) =
  Prefix_tree.verify ~root ~path:(Bitstring.of_id d.gd_vertex) ~value:d.gd_leaf
    d.gd_proof
  &&
  match leaf_digests d.gd_leaf with
  | None -> false
  | Some (c_preds, c_succs, c_payload) ->
      let opened digest =
        Option.fold ~none:true ~some:(component_valid digest)
      in
      opened c_preds d.gd_preds && opened c_succs d.gd_succs
      && opened c_payload d.gd_payload
      &&
      (* Bit openings check against digests embedded in the payload. *)
      (match d.gd_payload with
      | Some c when d.gd_bits <> [] -> begin
          match decode_op_payload c.gc_raw with
          | None -> false
          | Some (_, digests) ->
              List.for_all
                (fun (i, o) ->
                  i >= 1
                  && i <= List.length digests
                  && C.Commitment.verify
                       (C.Commitment.of_raw (List.nth digests (i - 1)))
                       o)
                d.gd_bits
        end
      | _ -> d.gd_bits = [])

let authenticated ~commit ds =
  let cp = commit.Wire.payload in
  match cp.Wire.cmt_commitments with
  | [ root ] when cp.Wire.cmt_scheme = scheme ->
      List.for_all (check_disclosure_integrity ~root) ds
  | _ -> false

let find_disclosure ds id =
  List.find_opt (fun (d : disclosure) -> d.gd_vertex = id) ds

let payload decode (d : disclosure) =
  Option.bind d.gd_payload (fun c -> decode c.gc_raw)

(* A disclosed predecessor or successor id list. *)
let ids (c : component option) =
  Option.bind c (fun c -> Codec.decode_list c.gc_raw Fun.id)

let bit_value (d : disclosure) i =
  Option.bind (List.assoc_opt i d.gd_bits) C.Commitment.opening_bit

(* What the bits [lo..hi] attest: [`Len l] when bit [lo + l - 1] opens to
   1 and every bit before it to 0, [`No_route] when all open to 0, and
   [`Unknown] when an opening on the way is missing — a viewer who
   withholds openings makes the bits attest nothing. *)
let first_set_bit d ~lo ~hi =
  let rec go i =
    if i > hi then `No_route
    else
      match bit_value d i with
      | Some true -> `Len (i - lo + 1)
      | Some false -> go (i + 1)
      | None -> `Unknown
  in
  go lo

(* Which evidence-bit indices a route of length [len] from variable [var]
   forces to 1 for the operator disclosed as [od].  Mirrors
   [provider_bit_indices], but derived purely from disclosed data. *)
let forced_bit_indices od ~var ~len =
  match payload decode_op_payload od with
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
            match ids od.gd_preds with
            | Some [ first; _ ] when first = var -> 0
            | Some [ _; second ] when second = var -> 1
            | _ -> -1
          in
          if branch >= 0 && len <= k then [ (branch * k) + len ] else []
        end
      | None -> []
    end

(* What an operator's opened evidence bits attest of its output: no
   route, or a non-empty output whose every route is [lo..hi] hops long. *)
let attested_output od =
  match payload decode_op_payload od with
  | None -> `Unknown
  | Some (op_enc, digests) -> begin
      let nbits = List.length digests in
      let window ~slack = function
        | `Len l -> `Routes (l, l + slack)
        | (`No_route | `Unknown) as v -> v
      in
      match Operator.decode op_enc with
      | Some Operator.Exists -> begin
          match bit_value od 1 with
          | Some true -> `Routes (0, max_int)
          | Some false -> `No_route
          | None -> `Unknown
        end
      | Some Operator.Min_path_length ->
          window ~slack:0 (first_set_bit od ~lo:1 ~hi:nbits)
      | Some (Operator.Within_hops_of_min n) ->
          (* Promise 3: the exported route may be up to n hops beyond the
             committed minimum. *)
          window ~slack:n (first_set_bit od ~lo:1 ~hi:nbits)
      | Some Operator.Shorter_of ->
          let k = nbits / 2 in
          window ~slack:0
            (match
               (first_set_bit od ~lo:1 ~hi:k,
                first_set_bit od ~lo:(k + 1) ~hi:(2 * k))
             with
            | `Len l1, `Len l2 -> `Len (min l1 l2)
            | `Len l, `No_route | `No_route, `Len l -> `Len l
            | `No_route, `No_route -> `No_route
            | `Unknown, _ | _, `Unknown -> `Unknown)
      | None -> `Unknown
    end

(* How the committed output [routes] (route encodings) contradict the
   operator's attested output, if they do. *)
let output_fault od routes =
  match attested_output od with
  | `Unknown -> None
  | `No_route ->
      if routes = [] then None
      else Some "evidence says no route, output is non-empty"
  | `Routes _ when routes = [] ->
      Some "evidence says a route exists, output is empty"
  | `Routes (lo, hi) ->
      List.find_map
        (fun enc ->
          match Option.map Bgp.Route.path_length (Wire.decode_route enc) with
          | Some len when lo <= len && len <= hi -> None
          | Some len ->
              Some
                (Printf.sprintf
                   "committed route length %d is outside the evidence's \
                    [%d, %d]"
                   len lo hi)
          | None -> Some "a committed route does not decode")
        routes

let offence_holds keyring ~commit ~disclosures offence =
  let cp = commit.Wire.payload in
  let find = find_disclosure disclosures in
  let lacks var route =
    match Option.bind (find var) (payload decode_var_payload) with
    | Some encs -> not (List.mem (Bgp.Route.encode route) encs)
    | None -> false
  in
  (* Signatures last: a party proposes offences its honest rounds refute
     before any signature needs checking. *)
  let admitted witness =
    Proto_common.valid_input keyring ~prover:commit.Wire.signer
      ~epoch:cp.Wire.cmt_epoch ~prefix:cp.Wire.cmt_prefix witness
  in
  match offence with
  | Evidence.Wrong_input_value { var; witness } ->
      var = Promise.input_var witness.Wire.signer
      && lacks var witness.Wire.payload.Wire.ann_route
      && admitted witness
  | Evidence.False_evidence_bit { op; index; witness } -> begin
      let var = Promise.input_var witness.Wire.signer in
      let len = Bgp.Route.path_length witness.Wire.payload.Wire.ann_route in
      match (find var, find op) with
      | Some vd, Some od ->
          Option.fold ~none:false ~some:(List.mem op) (ids vd.gd_succs)
          && List.mem index (forced_bit_indices od ~var ~len)
          && bit_value od index = Some false
          && admitted witness
      | _ -> false
    end
  | Evidence.Output_evidence_mismatch { out_var; op; detail = _ } -> begin
      match (find out_var, find op) with
      | Some out_d, Some od ->
          ids out_d.gd_preds = Some [ op ]
          && Option.fold ~none:false
               ~some:(fun routes -> output_fault od routes <> None)
               (payload decode_var_payload out_d)
      | _ -> false
    end
  | Evidence.Export_not_committed { out_var; export } ->
      let ep = export.Wire.payload in
      out_var = Promise.output_var ep.Wire.exp_to
      && lacks out_var ep.Wire.exp_route
      && Proto_common.export_binds keyring ~commit ~beneficiary:ep.Wire.exp_to
           export
      && Proto_common.export_provenance keyring export <> None

(* A party's accusation: the offence, if it holds over [ds]. *)
let confirmed keyring ~commit ds offence =
  if offence_holds keyring ~commit ~disclosures:ds offence then
    [ Evidence.Graph_violation { commit; disclosures = ds; offence } ]
  else []

let check_provider keyring ~me ~my_announce ~commit ~disclosures =
  let claim =
    [
      Evidence.Missing_disclosure_claim
        { commit; announce = my_announce; claimant = me };
    ]
  in
  let confirmed = confirmed keyring ~commit in
  let my_var = Promise.input_var me in
  match find_disclosure disclosures my_var with
  | Some d
    when authenticated ~commit disclosures
         && payload decode_var_payload d <> None -> begin
      match
        confirmed [ d ]
          (Evidence.Wrong_input_value { var = my_var; witness = my_announce })
      with
      | _ :: _ as wrong_input -> wrong_input
      | [] ->
          (* Follow succs to the consuming operators and check their
             evidence bits at my route length. *)
          let len =
            Bgp.Route.path_length my_announce.Wire.payload.Wire.ann_route
          in
          List.concat_map
            (fun op ->
              match find_disclosure disclosures op with
              | Some od when payload decode_op_payload od <> None ->
                  List.concat_map
                    (fun index ->
                      if bit_value od index = None then claim
                      else
                        confirmed [ d; od ]
                          (Evidence.False_evidence_bit
                             { op; index; witness = my_announce }))
                    (forced_bit_indices od ~var:my_var ~len)
              | _ -> claim)
            (Option.value (ids d.gd_succs) ~default:[])
    end
  | _ -> claim

let check_beneficiary keyring ~me ~commit ~disclosures ~export =
  let claim =
    [ Evidence.Missing_export_claim { commit; openings = []; claimant = me } ]
  in
  let confirmed = confirmed keyring ~commit in
  let out_var = Promise.output_var me in
  let out_d = find_disclosure disclosures out_var in
  let producer =
    Option.bind out_d (fun d ->
        match ids d.gd_preds with
        | Some [ op ] -> find_disclosure disclosures op
        | _ -> None)
  in
  match (out_d, Option.bind out_d (payload decode_var_payload), producer) with
  | Some out_d, Some routes, Some op_d
    when authenticated ~commit disclosures
         && payload decode_op_payload op_d <> None ->
      (match output_fault op_d routes with
      | Some detail ->
          confirmed [ out_d; op_d ]
            (Evidence.Output_evidence_mismatch
               { out_var; op = op_d.gd_vertex; detail })
      | None -> [])
      @ begin
          (* An export for another round or another AS is no export to B. *)
          match export with
          | Some export
            when Proto_common.export_binds keyring ~commit ~beneficiary:me
                   export ->
              (* A signed a bound export whose provenance fails: this is
                 [Proto_min.offence_holds]'s [Bad_provenance] test. *)
              if Proto_common.export_provenance keyring export = None then
                [ Evidence.Bad_provenance { export } ]
              else
                confirmed [ out_d ]
                  (Evidence.Export_not_committed { out_var; export })
          | _ -> if routes <> [] then claim else []
        end
  | _ -> claim

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
  && payload decode_comp_payload composite_disclosure = Some inner_root
  (* 2. Every inner disclosure authenticates against the inner root. *)
  && List.for_all (check_disclosure_integrity ~root:inner_root) inner
