module Bgp = Pvr_bgp
module C = Pvr_crypto

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

(* ---- perturbing the honest draft ------------------------------------------

   Every behaviour rewrites the honest draft before anything is signed, so
   Byzantine statements share their signer's batch with honest ones. *)

let perturb plan (d : Proto_min.draft) =
  let len (_, r) = Bgp.Route.path_length r in
  let inputs = d.Proto_min.dr_inputs in
  let longest = List.fold_left (fun acc i -> max acc (len i)) 0 inputs in
  let loser_export =
    Option.map
      (fun (n, r) -> (r, Proto_min.Input n))
      (List.find_opt (fun i -> len i = longest) inputs)
  in
  (* Bits pretending the longest input is the shortest, opened in full to
     B together with the longest export: self-consistent for B. *)
  let lie () =
    Proto_min.commit_claim d.Proto_min.dr_committer ~tag:"|lie"
      ~k:(List.length d.Proto_min.dr_committed)
      ~claimed_shortest:longest
  in
  let stonewall d =
    if plan.rp_comply then d
    else { d with Proto_min.dr_answer = Proto_min.Stonewall }
  in
  match plan.rp_behaviour with
  | Honest -> d
  | Export_nonminimal ->
      (* Honest bits, but ship the longest route to B. *)
      { d with Proto_min.dr_export = loser_export }
  | False_bits ->
      (* Lie to everyone.  Providers with shorter routes see their bit open
         to 0. *)
      let committed = lie () in
      {
        d with
        Proto_min.dr_committed = committed;
        dr_committed_b = committed;
        dr_export = loser_export;
        dr_answer = Proto_min.Stand_by loser_export;
      }
  | Equivocate ->
      (* Providers see the truthful commitment; B sees the lying one.  Each
         party's local view is self-consistent; only gossip reveals the
         split. *)
      {
        d with
        Proto_min.dr_committed_b = lie ();
        dr_export = loser_export;
      }
  | Suppress_export -> stonewall { d with Proto_min.dr_export = None }
  | Refuse_disclosure ->
      (* Withhold the opening from the first providing neighbor. *)
      stonewall
        {
          d with
          Proto_min.dr_withheld =
            (match inputs with (victim, _) :: _ -> [ victim ] | [] -> []);
        }
  | Forge_provenance ->
      (* Export a fabricated route of minimal length whose provenance
         announcement carries a bogus signature. *)
      let asn_fake = Bgp.Asn.of_int 65000 in
      let route =
        let hops = List.fold_left (fun m i -> min m (len i)) max_int inputs in
        let path =
          List.init (if inputs = [] then 1 else hops) (fun i ->
              if i = 0 then asn_fake else Bgp.Asn.of_int (65001 + i))
        in
        let base = Bgp.Route.originate ~asn:asn_fake d.Proto_min.dr_prefix in
        { base with Bgp.Route.as_path = path; next_hop = asn_fake }
      in
      let forged_announce =
        (* Signed by the adversary itself while claiming another signer:
           the signature can never verify against the claimed key. *)
        let key =
          Keyring.private_key d.Proto_min.dr_keyring d.Proto_min.dr_prover
        in
        Wire.sign_with key ~as_:asn_fake ~encode:Wire.encode_announce
          {
            Wire.ann_epoch = d.Proto_min.dr_epoch;
            ann_to = d.Proto_min.dr_prover;
            ann_route = route;
          }
      in
      {
        d with
        Proto_min.dr_export = Some (route, Proto_min.Forged forged_announce);
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
