module Bgp = Pvr_bgp
module C = Pvr_crypto
open Proto_common

type committed = (C.Commitment.commitment * C.Commitment.opening) list
type committer = tag:string -> bool list -> committed
type provenance = Input of Bgp.Asn.t | Forged of Wire.announce Wire.signed
type export_plan = Bgp.Route.t * provenance
type answer = Stonewall | Stand_by of export_plan option

type draft = {
  dr_keyring : Keyring.t;
  dr_committer : committer;
  dr_prover : Bgp.Asn.t;
  dr_beneficiary : Bgp.Asn.t;
  dr_epoch : Wire.epoch;
  dr_prefix : Bgp.Prefix.t;
  dr_inputs : (Bgp.Asn.t * Bgp.Route.t) list;
  dr_committed : committed;
  dr_committed_b : committed;
  dr_withheld : Bgp.Asn.t list;
  dr_export : export_plan option;
  dr_answer : answer;
}

let scheme = "min"

let default_max_path_len = 32

let route_len (_, r) = Bgp.Route.path_length r

(* b_i = 1 iff some input has length <= i, i.e. iff shortest <= i. *)
let commit_claim committer ~tag ~k ~claimed_shortest =
  committer ~tag (List.init k (fun i -> claimed_shortest <= i + 1))

let openings committed = List.mapi (fun i (_, o) -> (i + 1, o)) committed

let draft ?(max_path_len = default_max_path_len) ?export keyring ~committer
    ~prover ~beneficiary ~epoch ~prefix ~inputs =
  let shortest =
    List.fold_left (fun m i -> min m (route_len i)) max_int inputs
  in
  let committed =
    commit_claim committer ~tag:"" ~k:max_path_len ~claimed_shortest:shortest
  in
  let exported (_, r) =
    Option.fold ~none:false ~some:(Bgp.Route.equal r) export
  in
  let chosen =
    match List.find_opt exported inputs with
    | None -> List.find_opt (fun i -> route_len i = shortest) inputs
    | c -> c
  in
  let export = Option.map (fun (n, r) -> (r, Input n)) chosen in
  {
    dr_keyring = keyring;
    dr_committer = committer;
    dr_prover = prover;
    dr_beneficiary = beneficiary;
    dr_epoch = epoch;
    dr_prefix = prefix;
    dr_inputs = inputs;
    dr_committed = committed;
    dr_committed_b = committed;
    dr_withheld = [];
    dr_export = export;
    dr_answer = Stand_by export;
  }

let path_len (e : Wire.export Wire.signed) =
  Bgp.Route.path_length e.Wire.payload.Wire.exp_route

let offence_holds ?verified keyring evidence =
  let binds commit (export : Wire.export Wire.signed) =
    export_binds ?verified keyring ~commit
      ~beneficiary:export.Wire.payload.Wire.exp_to export
  in
  match evidence with
  | Evidence.False_bit { commit; index; opening; witness } ->
      let cp = commit.Wire.payload in
      cp.Wire.cmt_scheme = scheme
      && Bgp.Route.path_length witness.Wire.payload.Wire.ann_route <= index
      && opening_bit_at commit ~index opening = Some false
      && valid_input ?verified keyring ~prover:commit.Wire.signer
           ~epoch:cp.Wire.cmt_epoch ~prefix:cp.Wire.cmt_prefix witness
  | Evidence.Non_monotonic_bits
      { commit; set_index; set_opening; unset_index; unset_opening } ->
      let bit = opening_bit_at commit in
      set_index < unset_index
      && bit ~index:set_index set_opening = Some true
      && bit ~index:unset_index unset_opening = Some false
  | Evidence.Nonminimal_export { commit; export; index; opening } ->
      index < path_len export
      && opening_bit_at commit ~index opening = Some true
      && binds commit export
  | Evidence.Unsupported_export { commit; export; openings } ->
      let k = List.length commit.Wire.payload.Wire.cmt_commitments in
      List.length openings = k
      && List.sort_uniq Int.compare (List.map fst openings)
         = List.init k (fun i -> i + 1)
      &&
      let bit = opening_bit_at commit in
      List.for_all (fun (i, o) -> bit ~index:i o = Some false) openings
      && binds commit export
  | Evidence.Own_vector_mismatch { commit; my_export; bit_index; opening } ->
      commit.Wire.payload.Wire.cmt_scheme = "noshorter"
      && bit_index = path_len my_export
      && opening_bit_at commit ~index:bit_index opening = Some false
      && binds commit my_export
  | Evidence.Bad_provenance { export } ->
      export_provenance ?verified keyring export = None
      && Wire.verify ?verified keyring ~encode:Wire.encode_export export
  | Evidence.Equivocation _ | Evidence.Missing_export_claim _
  | Evidence.Missing_disclosure_claim _ | Evidence.Graph_violation _
  | Evidence.Timeout _ ->
      false

(* A party's accusation: the first candidate that holds. *)
let confirmed ?verified keyring candidates =
  Option.to_list (List.find_opt (offence_holds ?verified keyring) candidates)

let check_neighbor ?(on_bit = fun _ _ -> ()) keyring ~me ~my_announce ~commit
    ~disclosure =
  let missing =
    Evidence.Missing_disclosure_claim
      { commit; announce = my_announce; claimant = me }
  in
  let my_len =
    Bgp.Route.path_length my_announce.Wire.payload.Wire.ann_route
  in
  match disclosure with
  | None -> [ missing ]
  | Some { nd_index; nd_opening } -> begin
      match opening_bit_at commit ~index:nd_index nd_opening with
      | None -> [ missing ]
      | Some bit ->
          on_bit nd_index bit;
          if nd_index <> my_len then [ missing ]
          else if bit then []
          else
            confirmed keyring
              [
                Evidence.False_bit
                  {
                    commit;
                    index = nd_index;
                    opening = nd_opening;
                    witness = my_announce;
                  };
              ]
    end

let check_beneficiary ?(on_bit = fun _ _ -> ()) ?verified keyring ~me ~commit
    ~disclosure =
  (* B's own table, so that confirming an offence re-verifies nothing. *)
  let verified =
    (Option.value verified ~default:(Wire.Verified.create ()), me)
  in
  let confirmed = confirmed ~verified keyring in
  let k = List.length commit.Wire.payload.Wire.cmt_commitments in
  let claim_missing () =
    [
      Evidence.Missing_export_claim
        { commit; openings = disclosure.bd_openings; claimant = me };
    ]
  in
  (* Validate the openings: B expects one valid bit opening per index. *)
  let bit = opening_bit_at commit in
  let bits =
    List.filter_map
      (fun (i, o) ->
        match bit ~index:i o with
        | Some b ->
            on_bit i b;
            Some (i, b, o)
        | None -> None)
      disclosure.bd_openings
  in
  let indices = List.map (fun (i, _, _) -> i) bits in
  if List.sort_uniq Int.compare indices <> List.init k (fun i -> i + 1) then
    claim_missing ()
  else begin
    (* Monotonicity: i < j with b_i = 1, b_j = 0.  The pair raised is the
       first set bit, in disclosure order, below some unset index, with the
       first unset bit after it in disclosure order.  Its openings are
       valid, so it holds. *)
    let max_unset =
      List.fold_left (fun m (j, bj, _) -> if bj then m else max m j) 0 bits
    in
    match List.find_opt (fun (i, bi, _) -> bi && i < max_unset) bits with
    | Some (i, _, oi) ->
        let j, _, oj = List.find (fun (j, bj, _) -> j > i && not bj) bits in
        confirmed
          [
            Evidence.Non_monotonic_bits
              {
                commit;
                set_index = i;
                set_opening = oi;
                unset_index = j;
                unset_opening = oj;
              };
          ]
    | None -> begin
        let any_set = List.exists (fun (_, b, _) -> b) bits in
        (* An export for another round or another AS is no export to B. *)
        let export =
          match disclosure.bd_export with
          | Some e when export_binds ~verified keyring ~commit ~beneficiary:me e
            ->
              Some e
          | _ -> None
        in
        match (any_set, export) with
        | false, None -> []
        | true, None -> claim_missing ()
        | _, Some export -> begin
            match export_provenance ~verified keyring export with
            | None -> confirmed [ Evidence.Bad_provenance { export } ]
            | Some _ when not any_set ->
                confirmed
                  [
                    Evidence.Unsupported_export
                      {
                        commit;
                        export;
                        openings = List.map (fun (i, _, o) -> (i, o)) bits;
                      };
                  ]
            | Some witness ->
                (* Minimality: no bit below the exported length may be set;
                   the bit at the exported length must be set.  §3.3's
                   witness for that bit is the provenance, promise 4's is
                   A's own export. *)
                let len = path_len export in
                let below =
                  List.filter_map
                    (fun (i, b, opening) ->
                      if i < len && b then
                        Some
                          (Evidence.Nonminimal_export
                             { commit; export; index = i; opening })
                      else None)
                    bits
                and at_len =
                  List.concat_map
                    (fun (i, b, opening) ->
                      if i = len && not b then
                        [
                          Evidence.False_bit
                            { commit; index = i; opening; witness };
                          Evidence.Own_vector_mismatch
                            {
                              commit;
                              my_export = export;
                              bit_index = i;
                              opening;
                            };
                        ]
                      else [])
                    bits
                in
                confirmed (below @ at_len)
          end
      end
  end
