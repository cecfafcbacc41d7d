module Bgp = Pvr_bgp
module C = Pvr_crypto

type verdict = Guilty | Exonerated | Rejected

let verdict_to_string = function
  | Guilty -> "guilty"
  | Exonerated -> "exonerated"
  | Rejected -> "rejected"

type challenge =
  | Produce_export of {
      epoch : Wire.epoch;
      prefix : Bgp.Prefix.t;
      beneficiary : Bgp.Asn.t;
    }
  | Produce_opening of {
      epoch : Wire.epoch;
      prefix : Bgp.Prefix.t;
      scheme : string;
      index : int;
    }

type response =
  | Export_response of Wire.export Wire.signed
  | Opening_response of C.Commitment.opening
  | No_response

let commit_valid keyring c = Wire.verify keyring ~encode:Wire.encode_commit c

let export_valid keyring (e : Wire.export Wire.signed) =
  Wire.verify keyring ~encode:Wire.encode_export e

(* Same slot: the gossip identity key for commitments. *)
let same_slot (a : Wire.commit Wire.signed) (b : Wire.commit Wire.signed) =
  Bgp.Asn.equal a.Wire.signer b.Wire.signer
  && a.Wire.payload.Wire.cmt_epoch = b.Wire.payload.Wire.cmt_epoch
  && Bgp.Prefix.equal a.Wire.payload.Wire.cmt_prefix
       b.Wire.payload.Wire.cmt_prefix
  && String.equal a.Wire.payload.Wire.cmt_scheme b.Wire.payload.Wire.cmt_scheme

let bit_at commit ~index opening = Proto_common.opening_bit_at commit ~index opening

(* The lowest index whose opening is a valid bit set to 1. *)
let min_set_index commit openings =
  List.fold_left
    (fun acc (i, o) ->
      match bit_at commit ~index:i o with
      | Some true -> min acc i
      | _ -> acc)
    max_int openings

let verdict_of_bool b = if b then Guilty else Rejected

(* The export is the accused's own, for the commitment's epoch and prefix.
   The commit and export are almost always signed under one batch root:
   one call verifies that root once.  No caller's table is passed —
   evidence must convince a third party on its own. *)
let export_binds keyring ~accused commit (export : Wire.export Wire.signed) =
  let cp = commit.Wire.payload and ep = export.Wire.payload in
  Bgp.Asn.equal export.Wire.signer accused
  && ep.Wire.exp_epoch = cp.Wire.cmt_epoch
  && Bgp.Prefix.equal ep.Wire.exp_route.Bgp.Route.prefix cp.Wire.cmt_prefix
  &&
  match
    Wire.verify_batch keyring
      [
        Wire.check ~encode:Wire.encode_commit commit;
        Wire.check ~encode:Wire.encode_export export;
      ]
  with
  | [ a; b ] -> a && b
  | _ -> false

let rec eval keyring ~respond evidence =
  let accused = Evidence.accused evidence in
  match evidence with
  | Evidence.Timeout { claim; retries } -> begin
      (* A timeout is only credible if the claimant actually retried, and
         it must wrap a real omission claim (anything self-contained needs
         no timeout to prove, and nesting timeouts proves nothing). *)
      match claim with
      | _ when retries < 1 -> Rejected
      | Evidence.Timeout _ -> Rejected
      | Evidence.Missing_export_claim { commit; openings = []; claimant }
        when commit.Wire.payload.Wire.cmt_scheme <> "noshorter" ->
          (* Total silence: the claimant never even received the opening
             set, so it cannot show a bit = 1.  The judge first asks for
             the export; an accused with nothing to export may instead
             open its top bit to 0, which (bits are monotone) proves no
             admissible input existed and nothing was owed.  A promise-4
             claim falls through to the bare arm, which rejects it. *)
          if not (commit_valid keyring commit) then Rejected
          else begin
            let cp = commit.Wire.payload in
            let exonerated_by_export =
              match
                respond ~accused
                  (Produce_export
                     {
                       epoch = cp.Wire.cmt_epoch;
                       prefix = cp.Wire.cmt_prefix;
                       beneficiary = claimant;
                     })
              with
              | Export_response export ->
                  Result.is_ok
                    (Proto_common.check_export_provenance keyring ~commit
                       ~beneficiary:claimant export)
              | No_response | Opening_response _ -> false
            in
            if exonerated_by_export then Exonerated
            else begin
              let k = List.length cp.Wire.cmt_commitments in
              match
                respond ~accused
                  (Produce_opening
                     {
                       epoch = cp.Wire.cmt_epoch;
                       prefix = cp.Wire.cmt_prefix;
                       scheme = cp.Wire.cmt_scheme;
                       index = k;
                     })
              with
              | Opening_response o when bit_at commit ~index:k o = Some false
                ->
                  Exonerated
              | _ -> Guilty
            end
          end
      | (Evidence.Missing_export_claim _ | Evidence.Missing_disclosure_claim _)
        as claim ->
          eval keyring ~respond claim
      | _ -> Rejected
    end
  | Evidence.Equivocation { first; second } ->
      verdict_of_bool
        (commit_valid keyring first
        && commit_valid keyring second
        && same_slot first second
        && not (Wire.equal_commit first second))
  | Evidence.False_bit { commit; index; opening; witness } ->
      let cp = commit.Wire.payload in
      let witness_len =
        Bgp.Route.path_length witness.Wire.payload.Wire.ann_route
      in
      verdict_of_bool
        (commit_valid keyring commit
        && bit_at commit ~index opening = Some false
        && Proto_common.valid_input keyring ~prover:accused
             ~epoch:cp.Wire.cmt_epoch ~prefix:cp.Wire.cmt_prefix witness
        && cp.Wire.cmt_scheme = "min"
        && witness_len <= index)
  | Evidence.Non_monotonic_bits
      { commit; set_index; set_opening; unset_index; unset_opening } ->
      verdict_of_bool
        (commit_valid keyring commit
        && set_index < unset_index
        && bit_at commit ~index:set_index set_opening = Some true
        && bit_at commit ~index:unset_index unset_opening = Some false)
  | Evidence.Nonminimal_export { commit; export; index; opening } ->
      verdict_of_bool
        (export_binds keyring ~accused commit export
        && index < Bgp.Route.path_length export.Wire.payload.Wire.exp_route
        && bit_at commit ~index opening = Some true)
  | Evidence.Unsupported_export { commit; export; openings } ->
      let k = List.length commit.Wire.payload.Wire.cmt_commitments in
      let all_zero =
        List.length openings = k
        && List.for_all
             (fun (i, o) -> bit_at commit ~index:i o = Some false)
             openings
        && List.sort_uniq Int.compare (List.map fst openings)
           = List.init k (fun i -> i + 1)
      in
      verdict_of_bool (export_binds keyring ~accused commit export && all_zero)
  | Evidence.Bad_provenance { export } ->
      if not (export_valid keyring export) then Rejected
      else begin
        (* Re-run the provenance check the beneficiary ran. *)
        let ep = export.Wire.payload in
        let ok =
          match ep.Wire.exp_provenance with
          | None -> false
          | Some ann ->
              Proto_common.valid_input keyring ~prover:export.Wire.signer
                ~epoch:ep.Wire.exp_epoch
                ~prefix:ep.Wire.exp_route.Bgp.Route.prefix ann
              && Bgp.Route.equal ann.Wire.payload.Wire.ann_route
                   ep.Wire.exp_route
        in
        if ok then Rejected (* provenance is actually fine *) else Guilty
      end
  | Evidence.Missing_export_claim { commit; openings; claimant } ->
      if not (commit_valid keyring commit) then Rejected
      else begin
        let cp = commit.Wire.payload in
        let m = min_set_index commit openings in
        let bit_says_route =
          match cp.Wire.cmt_scheme with
          | "min" -> m < max_int
          | "graph" -> true (* bits live inside the tree; challenge anyway *)
          | _ -> false (* "noshorter": promise 4 owes nobody an export *)
        in
        if not bit_says_route then Rejected
        else begin
          match
            respond ~accused
              (Produce_export
                 {
                   epoch = cp.Wire.cmt_epoch;
                   prefix = cp.Wire.cmt_prefix;
                   beneficiary = claimant;
                 })
          with
          | No_response | Opening_response _ -> Guilty
          | Export_response export -> begin
              match
                Proto_common.check_export_provenance keyring ~commit
                  ~beneficiary:claimant export
              with
              | Error _ -> Guilty
              | Ok _ ->
                  let len =
                    Bgp.Route.path_length export.Wire.payload.Wire.exp_route
                  in
                  (* Under the min scheme the produced export must also be
                     minimal w.r.t. the opened bits; the graph scheme only
                     requires *an* export. *)
                  if cp.Wire.cmt_scheme = "min" && len > m then Guilty
                  else Exonerated
            end
        end
      end
  | Evidence.Missing_disclosure_claim { commit; announce; claimant } ->
      let cp = commit.Wire.payload in
      if
        not
          (commit_valid keyring commit
          && Bgp.Asn.equal announce.Wire.signer claimant
          && Proto_common.valid_input keyring ~prover:accused
               ~epoch:cp.Wire.cmt_epoch ~prefix:cp.Wire.cmt_prefix announce)
      then Rejected
      else begin
        let index =
          if cp.Wire.cmt_scheme = "min" then
            Bgp.Route.path_length announce.Wire.payload.Wire.ann_route
          else 0
        in
        if index = 0 || index > List.length cp.Wire.cmt_commitments then
          (* Graph-scheme omissions carry no commitment index the judge can
             open; the challenge falls back to the export question. *)
          Rejected
        else begin
          match
            respond ~accused
              (Produce_opening
                 {
                   epoch = cp.Wire.cmt_epoch;
                   prefix = cp.Wire.cmt_prefix;
                   scheme = cp.Wire.cmt_scheme;
                   index;
                 })
          with
          | No_response | Export_response _ -> Guilty
          | Opening_response opening -> begin
              match bit_at commit ~index opening with
              | Some true -> Exonerated
              | Some false | None -> Guilty
            end
        end
      end
  | Evidence.Graph_violation { commit; disclosures; offence } ->
      verdict_of_bool
        (commit_valid keyring commit
        && Proto_graph.authenticated ~commit disclosures
        && Proto_graph.offence_holds keyring ~commit ~disclosures offence)
  | Evidence.Own_vector_mismatch { commit; my_export; bit_index; opening } ->
      verdict_of_bool
        (commit.Wire.payload.Wire.cmt_scheme = "noshorter"
        && export_binds keyring ~accused commit my_export
        && bit_index
           = Bgp.Route.path_length my_export.Wire.payload.Wire.exp_route
        && bit_at commit ~index:bit_index opening = Some false)

(* The commitment a challenge's opening responses decode against. *)
let rec commit_of_evidence = function
  | Evidence.Timeout { claim; _ } -> commit_of_evidence claim
  | Evidence.Equivocation { first; _ } -> Some first
  | Evidence.False_bit { commit; _ }
  | Evidence.Non_monotonic_bits { commit; _ }
  | Evidence.Nonminimal_export { commit; _ }
  | Evidence.Unsupported_export { commit; _ }
  | Evidence.Missing_export_claim { commit; _ }
  | Evidence.Missing_disclosure_claim { commit; _ }
  | Evidence.Graph_violation { commit; _ }
  | Evidence.Own_vector_mismatch { commit; _ } -> Some commit
  | Evidence.Bad_provenance _ -> None

let evaluate ?ledger keyring ~respond evidence =
  let respond =
    match ledger with
    | None -> respond
    | Some l ->
        (* Account what challenge responses disclose to the court: an
           opening reveals one threshold bit, a produced export reveals a
           full route.  Silence reveals nothing. *)
        fun ~accused ch ->
          let r = respond ~accused ch in
          begin
            match (ch, r) with
            | Produce_opening { index; _ }, Opening_response o -> begin
                match
                  Option.bind (commit_of_evidence evidence) (fun commit ->
                      bit_at commit ~index o)
                with
                | Some value ->
                    Leakage.Ledger.record l ~viewer:Leakage.court
                      (Leakage.Knows_bit { index; value })
                | None -> ()
              end
            | Produce_export _, Export_response e ->
                let route = e.Wire.payload.Wire.exp_route in
                Leakage.Ledger.record l ~viewer:Leakage.court
                  (Leakage.Knows_route
                     { provider = route.Bgp.Route.next_hop; route })
            | _ -> ()
          end;
          r
  in
  eval keyring ~respond evidence

let evaluate_offline keyring evidence =
  evaluate keyring ~respond:(fun ~accused:_ _ -> No_response) evidence
