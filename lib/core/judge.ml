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

let commit_valid ?verified keyring c =
  Wire.verify ?verified keyring ~encode:Wire.encode_commit c

(* Same slot: the gossip identity key for commitments. *)
let same_slot (a : Wire.commit Wire.signed) (b : Wire.commit Wire.signed) =
  Bgp.Asn.equal a.Wire.signer b.Wire.signer
  && a.Wire.payload.Wire.cmt_epoch = b.Wire.payload.Wire.cmt_epoch
  && Bgp.Prefix.equal a.Wire.payload.Wire.cmt_prefix
       b.Wire.payload.Wire.cmt_prefix
  && String.equal a.Wire.payload.Wire.cmt_scheme b.Wire.payload.Wire.cmt_scheme

(* The lowest index whose opening is a valid bit set to 1. *)
let min_set_index commit openings =
  let bit = Proto_common.opening_bit_at commit in
  List.fold_left
    (fun acc (i, o) ->
      match bit ~index:i o with
      | Some true -> min acc i
      | _ -> acc)
    max_int openings

let verdict_of_bool b = if b then Guilty else Rejected

(* The commitment the evidence accuses by: the one a challenge's opening
   responses decode against, whose signature a min-family arm checks. *)
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

(* Challenged for the claimant's export, the accused produces one that
   binds to the commit and the claimant, with provenance, and under the
   min scheme no longer than [m], the lowest bit the claimant saw set. *)
let produces_export keyring ~respond ~accused ~commit ~claimant ~m =
  let cp = commit.Wire.payload in
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
      Proto_common.export_binds keyring ~commit ~beneficiary:claimant export
      && Proto_common.export_provenance keyring export <> None
      && (cp.Wire.cmt_scheme <> Proto_min.scheme
         || Bgp.Route.path_length export.Wire.payload.Wire.exp_route <= m)
  | No_response | Opening_response _ -> false

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
          else if
            produces_export keyring ~respond ~accused ~commit ~claimant
              ~m:max_int
          then Exonerated
          else begin
            let cp = commit.Wire.payload in
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
            | Opening_response o
              when Proto_common.opening_bit_at commit ~index:k o = Some false
              ->
                Exonerated
            | _ -> Guilty
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
  | Evidence.False_bit _ | Evidence.Non_monotonic_bits _
  | Evidence.Nonminimal_export _ | Evidence.Unsupported_export _
  | Evidence.Own_vector_mismatch _ | Evidence.Bad_provenance _ ->
      (* A fresh table, never a party's: a commit and an export under one
         batch root cost one RSA verify. *)
      let verified = (Wire.Verified.create (), accused) in
      verdict_of_bool
        (Proto_min.offence_holds ~verified keyring evidence
        && Option.fold ~none:true
             ~some:(commit_valid ~verified keyring)
             (commit_of_evidence evidence))
  | Evidence.Missing_export_claim { commit; openings; claimant } ->
      let m = min_set_index commit openings in
      let bit_says_route =
        match commit.Wire.payload.Wire.cmt_scheme with
        | "min" -> m < max_int
        | "graph" -> true (* bits live inside the tree; challenge anyway *)
        | _ -> false (* "noshorter": promise 4 owes nobody an export *)
      in
      if not (bit_says_route && commit_valid keyring commit) then Rejected
      else if produces_export keyring ~respond ~accused ~commit ~claimant ~m
      then Exonerated
      else Guilty
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
          if cp.Wire.cmt_scheme = Proto_min.scheme then
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
              match Proto_common.opening_bit_at commit ~index opening with
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
                      Proto_common.opening_bit_at commit ~index o)
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
