module Bgp = Pvr_bgp
module C = Pvr_crypto
open Proto_common

type behaviour =
  | Honest
  | Export_nonminimal
  | False_bits
  | Equivocate
  | Suppress_export
  | Refuse_disclosure
  | Forge_provenance

let all =
  [ Honest; Export_nonminimal; False_bits; Equivocate; Suppress_export;
    Refuse_disclosure; Forge_provenance ]

let to_string = function
  | Honest -> "honest"
  | Export_nonminimal -> "export-nonminimal"
  | False_bits -> "false-bits"
  | Equivocate -> "equivocate"
  | Suppress_export -> "suppress-export"
  | Refuse_disclosure -> "refuse-disclosure"
  | Forge_provenance -> "forge-provenance"

type min_run = {
  commit_for : Bgp.Asn.t -> Wire.commit Wire.signed;
  neighbor_disclosures :
    (Bgp.Asn.t * Proto_common.neighbor_disclosure option) list;
  beneficiary_disclosure : Proto_common.beneficiary_disclosure;
  respond : accused:Bgp.Asn.t -> Judge.challenge -> Judge.response;
}

let path_len (ann : Wire.announce Wire.signed) =
  Bgp.Route.path_length ann.Wire.payload.Wire.ann_route

(* Build a full commitment set for a claimed shortest length. *)
let build_commitments rng keyring ~prover ~epoch ~prefix ~k ~claimed_shortest =
  let bits = List.init k (fun i -> claimed_shortest <= i + 1) in
  let committed = List.map (C.Commitment.commit_bit rng) bits in
  let commit =
    Wire.sign keyring ~as_:prover ~encode:Wire.encode_commit
      {
        Wire.cmt_epoch = epoch;
        cmt_prefix = prefix;
        cmt_scheme = Proto_min.scheme;
        cmt_commitments =
          List.map
            (fun ((c : C.Commitment.commitment), _) -> (c :> string))
            committed;
      }
  in
  (commit, List.map snd committed)

let sign_export keyring ~prover ~epoch ~beneficiary ~route ~provenance =
  Wire.sign keyring ~as_:prover ~encode:Wire.encode_export
    {
      Wire.exp_epoch = epoch;
      exp_to = beneficiary;
      exp_route = route;
      exp_provenance = provenance;
    }

(* Answer the judge by standing behind the disclosure made to B. *)
let respond_with bd ~accused:_ = function
  | Judge.Produce_export _ -> begin
      match bd.bd_export with
      | Some e -> Judge.Export_response e
      | None -> Judge.No_response
    end
  | Judge.Produce_opening { index; _ } -> begin
      match List.assoc_opt index bd.bd_openings with
      | Some o -> Judge.Opening_response o
      | None -> Judge.No_response
    end

let run_min behaviour ?(max_path_len = Proto_min.default_max_path_len)
    ?(comply = false) rng keyring ~prover ~beneficiary ~epoch ~prefix ~inputs
    =
  Pvr_obs.with_span "adversary.run_min" @@ fun () ->
  (* Every behaviour perturbs the honest prover's output.  Its k commitment
     draws come first; the lying variants draw k more afterwards. *)
  let honest =
    Proto_min.prove ~max_path_len rng keyring ~prover ~beneficiary ~epoch
      ~prefix ~inputs
  in
  let inputs = honest.Proto_min.inputs in
  let honest_bd = honest.Proto_min.beneficiary_disclosure in
  let shortest =
    List.fold_left (fun acc a -> min acc (path_len a)) max_int inputs
  in
  let longest = List.fold_left (fun acc a -> max acc (path_len a)) 0 inputs in
  let loser_export () =
    Option.map
      (fun (chosen : Wire.announce Wire.signed) ->
        sign_export keyring ~prover ~epoch ~beneficiary
          ~route:chosen.Wire.payload.Wire.ann_route ~provenance:(Some chosen))
      (List.find_opt (fun a -> path_len a = longest) inputs)
  in
  (* Bits pretending the longest input is the shortest, opened in full to
     B together with the longest export: self-consistent for B. *)
  let lie () =
    let commit, openings =
      build_commitments rng keyring ~prover ~epoch ~prefix ~k:max_path_len
        ~claimed_shortest:longest
    in
    ( commit,
      {
        bd_openings = List.mapi (fun i o -> (i + 1, o)) openings;
        bd_export = loser_export ();
      } )
  in
  let honest_run =
    {
      commit_for = (fun _ -> honest.Proto_min.commit);
      neighbor_disclosures =
        List.map
          (fun (n, d) -> (n, Some d))
          honest.Proto_min.neighbor_disclosures;
      beneficiary_disclosure = honest_bd;
      respond = respond_with honest_bd;
    }
  in
  let stonewall =
    if comply then honest_run.respond else fun ~accused:_ _ -> Judge.No_response
  in
  match behaviour with
  | Honest -> honest_run
  | Export_nonminimal ->
      (* Honest bits, but ship the longest route to B. *)
      {
        honest_run with
        beneficiary_disclosure = { honest_bd with bd_export = loser_export () };
      }
  | False_bits ->
      (* Lie to everyone.  Providers with shorter routes see their bit open
         to 0. *)
      let commit, bd = lie () in
      {
        commit_for = (fun _ -> commit);
        neighbor_disclosures =
          List.map
            (fun ann ->
              ( ann.Wire.signer,
                Some
                  {
                    nd_index = path_len ann;
                    nd_opening = List.assoc (path_len ann) bd.bd_openings;
                  } ))
            inputs;
        beneficiary_disclosure = bd;
        respond = respond_with bd;
      }
  | Equivocate ->
      (* Providers see the truthful commitment; B sees the lying one.  Each
         party's local view is self-consistent; only gossip reveals the
         split. *)
      let commit, bd = lie () in
      {
        honest_run with
        commit_for =
          (fun who ->
            if Bgp.Asn.equal who beneficiary then commit
            else honest.Proto_min.commit);
        beneficiary_disclosure = bd;
      }
  | Suppress_export ->
      {
        honest_run with
        beneficiary_disclosure = { honest_bd with bd_export = None };
        respond = stonewall;
      }
  | Refuse_disclosure ->
      (* Withhold the opening from the first providing neighbor. *)
      {
        honest_run with
        neighbor_disclosures =
          (match honest_run.neighbor_disclosures with
          | (victim, _) :: rest -> (victim, None) :: rest
          | [] -> []);
        respond = stonewall;
      }
  | Forge_provenance ->
      (* Export a fabricated route of minimal length whose provenance
         announcement carries a bogus signature. *)
      let route =
        let asn_fake = Bgp.Asn.of_int 65000 in
        let path =
          List.init (max shortest 1) (fun i ->
              if i = 0 then asn_fake else Bgp.Asn.of_int (65001 + i))
        in
        let base = Bgp.Route.originate ~asn:asn_fake prefix in
        { base with Bgp.Route.as_path = path; next_hop = asn_fake }
      in
      let forged_announce =
        (* Signed by the adversary itself while claiming another signer:
           the signature can never verify against the claimed key. *)
        let key = Keyring.private_key keyring prover in
        Wire.sign_with key ~as_:(Bgp.Asn.of_int 65000)
          ~encode:Wire.encode_announce
          { Wire.ann_epoch = epoch; ann_to = prover; ann_route = route }
      in
      let export =
        sign_export keyring ~prover ~epoch ~beneficiary ~route
          ~provenance:(Some forged_announce)
      in
      {
        honest_run with
        beneficiary_disclosure = { honest_bd with bd_export = Some export };
      }

type detector = Beneficiary | Provider of Bgp.Asn.t | Gossip

let expected_detectors behaviour ~inputs =
  let shortest =
    List.fold_left (fun acc (_, l) -> min acc l) max_int inputs
  in
  let longest = List.fold_left (fun acc (_, l) -> max acc l) 0 inputs in
  match behaviour with
  | Honest -> []
  | Export_nonminimal ->
      (* Detectable by B iff a strictly shorter input than the exported
         (longest) one exists. *)
      if shortest < longest then [ Beneficiary ] else []
  | False_bits ->
      List.filter_map
        (fun (n, l) -> if l < longest then Some (Provider n) else None)
        inputs
  | Equivocate -> if shortest < longest then [ Gossip ] else []
  | Suppress_export -> if inputs <> [] then [ Beneficiary ] else []
  | Refuse_disclosure -> begin
      match inputs with (n, _) :: _ -> [ Provider n ] | [] -> []
    end
  | Forge_provenance -> [ Beneficiary ]

(* ---- the strategy zoo ------------------------------------------------------

   A strategy is a seeded, deterministic policy mapping each engine vertex
   (prover, prefix) at each wire epoch to a per-round behaviour — the same
   shape as a [Pvr_net] fault profile, but over protocol conduct instead of
   message delivery.  All pseudo-randomness is an HMAC of the strategy seed
   and the vertex coordinates, so a plan never depends on evaluation order,
   scheduling, or caching. *)

type strategy =
  | Sweep of behaviour
  | Coalition of { size : int; behaviour : behaviour }
  | Cross_shard of { shards : int; target : int }
  | Adaptive_low_value of { cheat : behaviour }
  | Timing_probe of { period : int }

type round_plan = {
  rp_behaviour : behaviour;
  rp_comply : bool;
  rp_coalition : int;
}

let honest_plan = { rp_behaviour = Honest; rp_comply = false; rp_coalition = 1 }

let all_strategies =
  [
    Sweep Honest;
    Coalition { size = 2; behaviour = False_bits };
    Cross_shard { shards = 4; target = 1 };
    Adaptive_low_value { cheat = Export_nonminimal };
    Timing_probe { period = 2 };
  ]

let strategy_to_string = function
  | Sweep Honest -> "honest"
  | Sweep b -> "sweep-" ^ to_string b
  | Coalition { behaviour; _ } -> "coalition-" ^ to_string behaviour
  | Cross_shard _ -> "cross-shard-equivocate"
  | Adaptive_low_value _ -> "adaptive-low-value"
  | Timing_probe _ -> "timing-probe"

let behaviour_of_string s = List.find_opt (fun b -> to_string b = s) all

let strategy_of_string s =
  let after p =
    let lp = String.length p in
    if String.length s > lp && String.sub s 0 lp = p then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match s with
  | "honest" -> Some (Sweep Honest)
  | "cross-shard-equivocate" -> Some (Cross_shard { shards = 4; target = 1 })
  | "adaptive-low-value" ->
      Some (Adaptive_low_value { cheat = Export_nonminimal })
  | "timing-probe" -> Some (Timing_probe { period = 2 })
  | _ -> begin
      match after "sweep-" with
      | Some b -> Option.map (fun b -> Sweep b) (behaviour_of_string b)
      | None -> begin
          match after "coalition-" with
          | Some b ->
              Option.map
                (fun behaviour -> Coalition { size = 2; behaviour })
                (behaviour_of_string b)
          | None -> Option.map (fun b -> Sweep b) (behaviour_of_string s)
        end
    end

let obs_plans = Pvr_obs.counter "adversary.plans"
let obs_cheats = Pvr_obs.counter "adversary.cheats"
let obs_stonewalls = Pvr_obs.counter "adversary.stonewalls"

(* A seeded hash of the vertex coordinates in [0, m).  [epoch = 0] keys
   strategies that pick a fixed vertex subset for the whole run. *)
let vertex_hash ~seed ~tag ~prover ~prefix ~epoch m =
  let msg =
    Printf.sprintf "%s|%d|%s|%d" tag (Bgp.Asn.to_int prover)
      (Bgp.Prefix.to_string prefix) epoch
  in
  let d = C.Hmac.mac ~key:seed msg in
  let n =
    (Char.code d.[0] lsl 16) lor (Char.code d.[1] lsl 8) lor Char.code d.[2]
  in
  n mod m

let plan_round strategy ~seed ~prover ~prefix ~epoch =
  Pvr_obs.incr obs_plans;
  let plan =
    match strategy with
    | Sweep b -> { honest_plan with rp_behaviour = b }
    | Coalition { size; behaviour } ->
        { rp_behaviour = behaviour; rp_comply = false;
          rp_coalition = max 1 size }
    | Cross_shard { shards; target } ->
        let shards = max 1 shards in
        let target = ((target mod shards) + shards) mod shards in
        if
          vertex_hash ~seed ~tag:"cross-shard" ~prover ~prefix ~epoch:0 shards
          = target
        then { honest_plan with rp_behaviour = Equivocate }
        else honest_plan
    | Adaptive_low_value { cheat } ->
        (* Cheat only on low-value (most-specific, /24-tier) prefixes,
           staying honest on the /8 and /16 families. *)
        if prefix.Bgp.Prefix.len >= 24 then
          { honest_plan with rp_behaviour = cheat }
        else honest_plan
    | Timing_probe { period } ->
        let period = max 1 period in
        if vertex_hash ~seed ~tag:"timing" ~prover ~prefix ~epoch period = 0
        then
          { rp_behaviour = Suppress_export; rp_comply = true; rp_coalition = 1 }
        else honest_plan
  in
  if plan.rp_behaviour <> Honest then
    if plan.rp_comply then Pvr_obs.incr obs_stonewalls
    else Pvr_obs.incr obs_cheats;
  plan
