(* Tests for pvr_bgp: prefixes, routes, the decision process,
   RIBs, topologies, the simulator, workload generation, and the Gao
   relationship-inference attack. *)

module G = Pvr_bgp
module C = Pvr_crypto
module Gao_inference = Pvr_baselines.Gao_inference

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_route ?(prefix = G.Prefix.of_string "10.0.0.0/8") ?(lp = 100) ?(med = 0)
    ?(origin = G.Route.Igp) ?(communities = []) path =
  let path = List.map asn path in
  match path with
  | [] -> invalid_arg "mk_route: empty path"
  | first :: _ ->
      {
        G.Route.prefix;
        as_path = path;
        next_hop = first;
        local_pref = lp;
        med;
        origin;
        communities;
      }

(* ---- Prefix ---------------------------------------------------------------- *)

let prefix_parse_print () =
  List.iter
    (fun s -> check_str s s (G.Prefix.to_string (G.Prefix.of_string s)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "192.168.1.0/24"; "255.255.255.255/32" ]

let prefix_masks_host_bits () =
  check_str "host bits cleared" "10.0.0.0/8"
    (G.Prefix.to_string (G.Prefix.of_string "10.1.2.3/8"))

let prefix_rejects () =
  List.iter
    (fun s ->
      match G.Prefix.of_string s with
      | _ -> Alcotest.failf "expected %S to be rejected" s
      | exception Invalid_argument _ -> ())
    [ "10.0.0.0"; "10.0.0/8"; "256.0.0.0/8"; "10.0.0.0/33"; "a.b.c.d/8" ]

let prefix_contains () =
  let p = G.Prefix.of_string in
  check_bool "contains" true (G.Prefix.contains (p "10.0.0.0/8") (p "10.1.0.0/16"));
  check_bool "self" true (G.Prefix.contains (p "10.0.0.0/8") (p "10.0.0.0/8"));
  check_bool "not contains" false
    (G.Prefix.contains (p "10.0.0.0/8") (p "11.0.0.0/16"));
  check_bool "longer cannot contain shorter" false
    (G.Prefix.contains (p "10.0.0.0/16") (p "10.0.0.0/8"))

let prefix_random_valid =
  qtest "random prefixes are canonical" QCheck2.Gen.small_int (fun seed ->
      let rng = C.Drbg.of_int_seed seed in
      let p = G.Prefix.random rng in
      G.Prefix.equal p (G.Prefix.of_string (G.Prefix.to_string p)))

(* ---- Route ------------------------------------------------------------------ *)

let route_prepend () =
  let r = mk_route [ 20; 30 ] in
  let r' = G.Route.prepend (asn 10) r in
  check_int "length" 3 (G.Route.path_length r');
  check_bool "next hop" true (G.Asn.equal r'.G.Route.next_hop (asn 10));
  check_bool "through" true (G.Route.through (asn 30) r');
  check_bool "loop detect" true (G.Route.has_loop (asn 20) r');
  check_bool "no loop" false (G.Route.has_loop (asn 99) r')

let route_strip_private () =
  let r = mk_route ~lp:200 [ 20 ] in
  check_int "reset"
    (G.Route.originate ~asn:(asn 20) r.G.Route.prefix).G.Route.local_pref
    (G.Route.strip_private_attrs r).G.Route.local_pref

let route_encode_injective =
  qtest "route encoding injective on paths"
    QCheck2.Gen.(pair (list_size (int_range 1 6) (int_range 1 1000))
                   (list_size (int_range 1 6) (int_range 1 1000)))
    (fun (p1, p2) ->
      p1 = p2
      || G.Route.encode (mk_route p1) <> G.Route.encode (mk_route p2))

(* ---- Decision ------------------------------------------------------------------ *)

(* [beats a b]: the standard pipeline prefers [a] to [b]. *)
let beats a b = G.Decision.compare_standard a b < 0

let decision_prefers_local_pref () =
  let a = mk_route ~lp:200 [ 20; 30; 40 ] and b = mk_route [ 21 ] in
  check_bool "local pref beats length" true (beats a b && not (beats b a))

let decision_prefers_short_path () =
  let a = mk_route [ 20; 30 ] and b = mk_route [ 21 ] in
  check_bool "shorter" true (beats b a && not (beats a b))

let decision_origin_and_med () =
  let a = mk_route ~origin:G.Route.Egp [ 20 ] in
  let b = mk_route ~origin:G.Route.Igp [ 21 ] in
  check_bool "igp wins" true (beats b a && not (beats a b));
  let c = mk_route ~med:10 [ 20 ] and d = mk_route ~med:5 [ 21 ] in
  check_bool "low med wins" true (beats d c && not (beats c d))

let decision_tiebreak_neighbor () =
  let a = mk_route [ 21 ] and b = mk_route [ 20 ] in
  check_bool "lowest neighbor" true (beats b a && not (beats a b));
  check_int "full tie" 0 (G.Decision.compare_standard a a)

let decision_empty () =
  List.iter
    (fun step -> check_bool "empty" true (G.Decision.run_step step [] = []))
    G.Decision.standard_pipeline

let decision_total =
  qtest "decision always picks from candidates"
    QCheck2.Gen.(list_size (int_range 1 8) (int_range 1 500))
    (fun firsts ->
      let routes = List.map (fun f -> mk_route [ f; 999 ]) firsts in
      let survivors =
        List.fold_left
          (fun rs step -> G.Decision.run_step step rs)
          routes G.Decision.standard_pipeline
      in
      survivors <> [] && List.for_all (fun r -> List.memq r routes) survivors)

(* The one-pass comparison picks the very route the step-by-step fold
   picks.  Keys are drawn from tiny ranges so that ties on every step,
   including full ties between distinct routes, are common; the empty
   list has no best. *)
let decision_one_pass_is_fold =
  qtest "one-pass best = step-by-step fold"
    QCheck2.Gen.(
      list_size (int_range 0 7)
        (tup5 (int_range 0 1) (int_range 1 3) (int_range 0 2) (int_range 0 1)
           (int_range 1 3)))
    (fun keys ->
      let routes =
        List.map
          (fun (lp, len, origin, med, nh) ->
            mk_route ~lp:(100 * (lp + 1)) ~med
              ~origin:(List.nth G.Route.[ Igp; Egp; Incomplete ] origin)
              (nh :: List.init (len - 1) (fun i -> 50 + i)))
          keys
      in
      let by_steps =
        match
          List.fold_left
            (fun rs step -> G.Decision.run_step step rs)
            routes G.Decision.standard_pipeline
        with
        | [] -> None
        | r :: _ -> Some r
      in
      let one_pass =
        match routes with
        | [] -> None
        | r :: rest ->
            Some (List.fold_left (fun b r -> if beats r b then r else b) r rest)
      in
      match (one_pass, by_steps) with
      | None, None -> routes = []
      | Some a, Some b -> a == b
      | _ -> false)

(* ---- Rib ------------------------------------------------------------------------ *)

let rib_in_out () =
  let rib = G.Rib.create [| asn 21; asn 20 |] in
  let p = G.Prefix.of_string "10.0.0.0/8" in
  let r = mk_route [ 20 ] in
  G.Rib.set_in rib ~neighbor:(asn 20) p (Some r);
  check_bool "get_in" true (G.Rib.get_in rib ~neighbor:(asn 20) p = Some r);
  check_int "candidates" 1 (List.length (G.Rib.candidates rib p));
  G.Rib.set_in rib ~neighbor:(asn 21) p (Some (mk_route [ 21 ]));
  check_int "two candidates" 2 (List.length (G.Rib.candidates rib p));
  check_bool "descending neighbor order" true
    (List.map (fun r -> r.G.Route.next_hop) (G.Rib.candidates rib p)
    = [ asn 21; asn 20 ]);
  check_bool "no slot for a non-neighbor" true
    (G.Rib.get_in rib ~neighbor:(asn 22) p = None);
  Alcotest.check_raises "set_in from a non-neighbor"
    (Invalid_argument "Rib: not a neighbor: AS22") (fun () ->
      G.Rib.set_in rib ~neighbor:(asn 22) p (Some (mk_route [ 22 ])));
  G.Rib.set_in rib ~neighbor:(asn 20) p None;
  check_bool "withdrawn" true (G.Rib.get_in rib ~neighbor:(asn 20) p = None);
  check_int "one candidate left" 1 (List.length (G.Rib.candidates rib p))

let rib_prefix_listing () =
  let rib = G.Rib.create [| asn 20 |] in
  let p1 = G.Prefix.of_string "10.0.0.0/8" in
  let p2 = G.Prefix.of_string "172.16.0.0/12" in
  G.Rib.set_in rib ~neighbor:(asn 20) p1 (Some (mk_route [ 20 ]));
  G.Rib.set_best rib p2 (Some (mk_route ~prefix:p2 [ 30 ]));
  check_int "both prefixes" 2 (List.length (G.Rib.prefixes rib))

(* ---- Relationship ----------------------------------------------------------------- *)

let relationship_invert () =
  check_bool "cust/prov" true
    (G.Relationship.invert G.Relationship.Customer = G.Relationship.Provider);
  check_bool "peer" true
    (G.Relationship.invert G.Relationship.Peer = G.Relationship.Peer)

let gao_rexford_export_rule () =
  let e l t = G.Relationship.export_allowed ~learned_from:l ~to_:t in
  (* Customer routes go everywhere. *)
  check_bool "c->c" true (e G.Relationship.Customer G.Relationship.Customer);
  check_bool "c->p" true (e G.Relationship.Customer G.Relationship.Peer);
  check_bool "c->pr" true (e G.Relationship.Customer G.Relationship.Provider);
  (* Peer/provider routes only to customers. *)
  check_bool "p->c" true (e G.Relationship.Peer G.Relationship.Customer);
  check_bool "p->p" false (e G.Relationship.Peer G.Relationship.Peer);
  check_bool "pr->p" false (e G.Relationship.Provider G.Relationship.Peer);
  check_bool "pr->pr" false (e G.Relationship.Provider G.Relationship.Provider)

(* ---- Topology ---------------------------------------------------------------------- *)

let topology_links_and_neighbors () =
  let t =
    G.Topology.star ~center:(asn 1)
      ~leaves:[ asn 10; asn 11 ]
      ~rel:G.Relationship.Customer
  in
  check_int "size" 3 (G.Topology.size t);
  check_int "links" 2 (List.length (G.Topology.links t));
  check_int "center degree" 2 (G.Topology.degree t (asn 1));
  check_bool "rel from center" true
    (G.Topology.relationship t (asn 1) (asn 10) = Some G.Relationship.Customer);
  check_bool "rel from leaf" true
    (G.Topology.relationship t (asn 10) (asn 1) = Some G.Relationship.Provider);
  check_bool "unlinked" true (G.Topology.relationship t (asn 10) (asn 11) = None)

let topology_rejects_self_and_duplicate () =
  let t = G.Topology.empty in
  Alcotest.check_raises "self" (Invalid_argument "Topology.add_link: self-link")
    (fun () ->
      ignore (G.Topology.add_link t ~a:(asn 1) ~b:(asn 1) ~rel_ab:G.Relationship.Peer));
  let t = G.Topology.add_link t ~a:(asn 1) ~b:(asn 2) ~rel_ab:G.Relationship.Peer in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_link: duplicate link") (fun () ->
      ignore
        (G.Topology.add_link t ~a:(asn 1) ~b:(asn 2) ~rel_ab:G.Relationship.Peer))

let topology_clique_chain () =
  let c = G.Topology.clique (List.init 5 (fun i -> asn (i + 1))) in
  check_int "clique links" 10 (List.length (G.Topology.links c));
  let ch = G.Topology.chain (List.init 5 (fun i -> asn (i + 1))) in
  check_int "chain links" 4 (List.length (G.Topology.links ch))

let topology_hierarchy_connected () =
  let rng = C.Drbg.of_int_seed 7 in
  let t = G.Topology.hierarchy rng ~tiers:[ 3; 6; 12 ] ~extra_peering:0.1 in
  check_int "all ases present" 21 (G.Topology.size t);
  (* Everyone below tier 1 has at least one provider. *)
  List.iter
    (fun a ->
      if G.Asn.to_int a > 3 then
        check_bool "has provider" true
          (List.exists
             (fun (_, rel) -> rel = G.Relationship.Provider)
             (G.Topology.neighbors t a)))
    (G.Topology.ases t)

(* ---- Simulator --------------------------------------------------------------------- *)

let prefix0 = G.Prefix.of_string "10.0.0.0/8"

let sim_chain_propagation () =
  let ases = List.init 6 (fun i -> asn (i + 1)) in
  let sim = G.Simulator.create (G.Topology.chain ases) in
  G.Simulator.originate sim ~asn:(asn 6) prefix0;
  let _ = G.Simulator.run sim in
  (* The origin holds its self route [AS6] (length 1); AS_j for j < 6
     receives the path [AS_{j+1} .. AS6] of length 6 - j. *)
  List.iteri
    (fun i a ->
      let expected = if i = 5 then 1 else 5 - i in
      match G.Simulator.best_route sim ~asn:a prefix0 with
      | Some r -> check_int "path length" expected (G.Route.path_length r)
      | None -> Alcotest.failf "AS%d has no route" (i + 1))
    ases

let sim_star_min_at_center () =
  (* Figure 1: the center receives one route per leaf and picks the best. *)
  let center = asn 1 and b = asn 100 in
  let leaves = List.init 4 (fun i -> asn (10 + i)) in
  let topo =
    G.Topology.star ~center ~leaves:(b :: leaves) ~rel:G.Relationship.Customer
  in
  let sim = G.Simulator.create topo in
  List.iter (fun n -> G.Simulator.originate sim ~asn:n prefix0) leaves;
  let _ = G.Simulator.run sim in
  check_int "received all" 4
    (List.length (G.Simulator.received_routes sim ~asn:center prefix0));
  (match G.Simulator.exported_route sim ~asn:center ~neighbor:b prefix0 with
  | Some r ->
      check_int "exported length" 2 (G.Route.path_length r);
      check_bool "center on path" true (G.Route.through center r)
  | None -> Alcotest.fail "no export to B")

let sim_withdraw () =
  let ases = List.init 3 (fun i -> asn (i + 1)) in
  let sim = G.Simulator.create (G.Topology.chain ases) in
  G.Simulator.originate sim ~asn:(asn 3) prefix0;
  let _ = G.Simulator.run sim in
  check_bool "has route" true (G.Simulator.best_route sim ~asn:(asn 1) prefix0 <> None);
  G.Simulator.withdraw_origin sim ~asn:(asn 3) prefix0;
  let _ = G.Simulator.run sim in
  check_bool "withdrawn everywhere" true
    (G.Simulator.best_route sim ~asn:(asn 1) prefix0 = None)

let sim_withdraw_no_stale_state () =
  (* After originate -> converge -> withdraw -> converge, no RIB anywhere —
     adj-RIB-in, loc-RIB, or adj-RIB-out towards any neighbor — may still
     hold a route for the prefix. *)
  let rng = C.Drbg.of_int_seed 23 in
  let t = G.Topology.hierarchy rng ~tiers:[ 2; 4; 8 ] ~extra_peering:0.15 in
  let sim = G.Simulator.create t in
  let origin = asn 14 in
  G.Simulator.originate sim ~asn:origin prefix0;
  let _ = G.Simulator.run sim in
  check_bool "converged with routes" true
    (G.Simulator.best_route sim ~asn:(asn 1) prefix0 <> None);
  G.Simulator.withdraw_origin sim ~asn:origin prefix0;
  let _ = G.Simulator.run sim in
  List.iter
    (fun a ->
      let name fmt = Printf.sprintf fmt (G.Asn.to_string a) in
      check_bool (name "%s loc-RIB empty") true
        (G.Simulator.best_route sim ~asn:a prefix0 = None);
      check_int (name "%s adj-RIB-in empty") 0
        (List.length (G.Simulator.received_routes sim ~asn:a prefix0));
      List.iter
        (fun (n, _) ->
          check_bool (name "%s adj-RIB-out empty") true
            (G.Simulator.exported_route sim ~asn:a ~neighbor:n prefix0 = None))
        (G.Topology.neighbors t a))
    (G.Topology.ases t)

let sim_run_feeds_counters () =
  (* With metrics enabled, one simulator run adds exactly its message count
     to sim.updates.processed and bumps sim.runs / sim.originates /
     sim.withdrawals. *)
  Pvr_obs.set_enabled true;
  Pvr_obs.reset_all ();
  Fun.protect ~finally:(fun () -> Pvr_obs.set_enabled false) @@ fun () ->
  let ases = List.init 5 (fun i -> asn (i + 1)) in
  let sim = G.Simulator.create (G.Topology.chain ases) in
  G.Simulator.originate sim ~asn:(asn 5) prefix0;
  let msgs = G.Simulator.run sim in
  G.Simulator.withdraw_origin sim ~asn:(asn 5) prefix0;
  let msgs' = G.Simulator.run sim in
  let v name = Pvr_obs.value (Pvr_obs.counter name) in
  check_int "updates.processed matches run totals" (msgs + msgs')
    (v "sim.updates.processed");
  check_int "two runs" 2 (v "sim.runs");
  check_int "one originate" 1 (v "sim.originates");
  check_int "one withdrawal" 1 (v "sim.withdrawals")

let sim_gao_rexford_valley_free () =
  (* A peer route must not be exported to another peer: with two tier-1
     peers P1-P2 and customers C1 under P1, C2 under P2, C1's prefix reaches
     P2 (customer route of P1 exported to peer P2) and C2 (customer of P2);
     but if C2 also peers with C1's sibling... simpler: verify a peer does
     not transit.  Topology: P1 - P2 peers, C under P1 only.  P2 must learn
     C's prefix via P1 (customer route exported to peer); a third peer P3
     peering with P2 must NOT learn it from P2. *)
  let p1 = asn 1 and p2 = asn 2 and p3 = asn 3 and c = asn 4 in
  let t = G.Topology.empty in
  let t = G.Topology.add_link t ~a:p1 ~b:p2 ~rel_ab:G.Relationship.Peer in
  let t = G.Topology.add_link t ~a:p2 ~b:p3 ~rel_ab:G.Relationship.Peer in
  let t = G.Topology.add_link t ~a:p1 ~b:c ~rel_ab:G.Relationship.Customer in
  let sim = G.Simulator.create t in
  G.Simulator.originate sim ~asn:c prefix0;
  let _ = G.Simulator.run sim in
  check_bool "p2 learns customer route of p1" true
    (G.Simulator.best_route sim ~asn:p2 prefix0 <> None);
  check_bool "p3 must not learn it through two peer hops" true
    (G.Simulator.best_route sim ~asn:p3 prefix0 = None)

let sim_hierarchy_full_reachability () =
  let rng = C.Drbg.of_int_seed 11 in
  let t = G.Topology.hierarchy rng ~tiers:[ 2; 4; 8 ] ~extra_peering:0.15 in
  let sim = G.Simulator.create t in
  let origin = asn 14 in
  G.Simulator.originate sim ~asn:origin prefix0;
  let _ = G.Simulator.run sim in
  List.iter
    (fun a ->
      check_bool
        (Printf.sprintf "%s reaches origin" (G.Asn.to_string a))
        true
        (G.Simulator.best_route sim ~asn:a prefix0 <> None))
    (G.Topology.ases t)

let sim_message_budget () =
  (* A chain converges in a fixed number of messages; a budget one short
     of it stops the run with [Failure], and the exact budget suffices. *)
  let fresh () =
    let sim =
      G.Simulator.create (G.Topology.chain (List.init 6 (fun i -> asn (i + 1))))
    in
    G.Simulator.originate sim ~asn:(asn 6) prefix0;
    sim
  in
  let needed = G.Simulator.run (fresh ()) in
  check_bool "convergence takes messages" true (needed > 1);
  (match G.Simulator.run ~max_messages:(needed - 1) (fresh ()) with
  | _ -> Alcotest.fail "run past its budget returned"
  | exception Failure _ -> ());
  check_int "exact budget converges" needed
    (G.Simulator.run ~max_messages:needed (fresh ()))

(* ---- Update generator ------------------------------------------------------------------ *)

let update_gen_sorted_and_bursty () =
  let rng = C.Drbg.of_int_seed 13 in
  let events =
    G.Update_gen.bursty rng ~duration_ms:5000 ~base_rate_per_s:20.0
      ~burst_every_ms:1000 ~burst_size_mean:30 ~origin:(asn 7)
  in
  check_bool "non-empty" true (events <> []);
  let sorted = ref true in
  let _ =
    List.fold_left
      (fun prev (e : G.Update_gen.event) ->
        if e.at_ms < prev then sorted := false;
        e.at_ms)
      0 events
  in
  check_bool "sorted" true !sorted;
  (* Bursts should make some windows much fuller than the background. *)
  let batches = G.Update_gen.batches ~window_ms:100 events in
  let sizes = List.map List.length batches in
  check_bool "bursty: some window >= 10" true (List.exists (fun s -> s >= 10) sizes)

let update_gen_batches_partition () =
  let rng = C.Drbg.of_int_seed 14 in
  let events =
    G.Update_gen.bursty rng ~duration_ms:2000 ~base_rate_per_s:50.0
      ~burst_every_ms:500 ~burst_size_mean:10 ~origin:(asn 7)
  in
  let batches = G.Update_gen.batches ~window_ms:250 events in
  check_int "no event lost" (List.length events)
    (List.fold_left (fun acc b -> acc + List.length b) 0 batches)

let sim_single_as_only_route () =
  (* Degenerate internet: one AS, no links.  Originating and withdrawing
     its only route must round-trip without stale state or messages. *)
  let t = G.Topology.add_as G.Topology.empty (asn 1) in
  let sim = G.Simulator.create t in
  let p = G.Prefix.of_string "10.1.0.0/24" in
  G.Simulator.originate sim ~asn:(asn 1) p;
  let msgs = G.Simulator.run sim in
  check_int "no neighbors, no messages" 0 msgs;
  check_bool "originator holds its route" true
    (G.Simulator.best_route sim ~asn:(asn 1) p <> None);
  check_int "no candidates received" 0
    (List.length (G.Simulator.received_routes sim ~asn:(asn 1) p));
  G.Simulator.withdraw_origin sim ~asn:(asn 1) p;
  let _ = G.Simulator.run sim in
  check_bool "withdrawing the only route empties Loc-RIB" true
    (G.Simulator.best_route sim ~asn:(asn 1) p = None)

let update_gen_single_origin_churn () =
  (* Churn over a single-AS topology: anycast slots need two origins, and a
     full-table flap withdraws the only live route. *)
  let t = G.Topology.add_as G.Topology.empty (asn 1) in
  let sim = G.Simulator.create t in
  let churn =
    G.Update_gen.Churn.create ~anycast:3 ~origins:[ asn 1 ]
      ~prefixes_per_origin:1 ()
  in
  check_int "anycast ignored with one origin" 1 (G.Update_gen.Churn.size churn);
  check_int "seeds the only slot" 1
    (List.length (G.Update_gen.Churn.seed churn sim));
  check_int "live after seed" 1 (G.Update_gen.Churn.live_count churn);
  let _ = G.Simulator.run sim in
  let rng = C.Drbg.of_int_seed 5 in
  (match G.Update_gen.Churn.step rng ~turnover:1.0 churn sim with
  | [ G.Update_gen.Churn.Withdraw (a, _) ] ->
      check_bool "withdraws at the origin" true (G.Asn.equal a (asn 1))
  | _ -> Alcotest.fail "expected exactly one withdrawal");
  let _ = G.Simulator.run sim in
  check_int "nothing live after full flap" 0
    (G.Update_gen.Churn.live_count churn)

let sim_peer_clique_no_transit () =
  (* All-peer clique: under Gao–Rexford, peer-learned routes are never
     re-exported, so every AS sees exactly the origin's direct announcement
     and one-hop paths are all that exist. *)
  let members = List.init 5 (fun i -> asn (i + 1)) in
  let t = G.Topology.clique members in
  let sim = G.Simulator.create t in
  let p = G.Prefix.of_string "203.0.113.0/24" in
  G.Simulator.originate sim ~asn:(asn 1) p;
  let _ = G.Simulator.run sim in
  List.iter
    (fun a ->
      if not (G.Asn.equal a (asn 1)) then begin
        (match G.Simulator.best_route sim ~asn:a p with
        | Some r ->
            check_bool
              (Printf.sprintf "AS %d best path is direct" (G.Asn.to_int a))
              true
              (r.G.Route.as_path = [ asn 1 ])
        | None -> Alcotest.failf "AS %d has no route" (G.Asn.to_int a));
        check_int
          (Printf.sprintf "AS %d saw only the direct announcement"
             (G.Asn.to_int a))
          1
          (List.length (G.Simulator.received_routes sim ~asn:a p))
      end)
    members

(* ---- Gao inference ------------------------------------------------------------------------ *)

let gao_inference_on_hierarchy () =
  (* Run BGP over a hierarchy, collect the AS paths seen at every AS, and
     check the attack recovers a meaningful share of relationships. *)
  let rng = C.Drbg.of_int_seed 15 in
  let t = G.Topology.hierarchy rng ~tiers:[ 2; 4; 8 ] ~extra_peering:0.0 in
  let sim = G.Simulator.create t in
  List.iter
    (fun origin ->
      G.Simulator.originate sim ~asn:origin
        (G.Prefix.make ~addr:(G.Asn.to_int origin lsl 24) ~len:8))
    (G.Topology.ases t);
  let _ = G.Simulator.run sim in
  let paths =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun p ->
            List.map
              (fun (r : G.Route.t) -> r.G.Route.as_path)
              (G.Simulator.received_routes sim ~asn:a p))
          (G.Rib.prefixes (G.Simulator.rib sim a)))
      (G.Topology.ases t)
  in
  check_bool "saw paths" true (List.length paths > 20);
  let inferred = Gao_inference.infer ~degree:(G.Topology.degree t) paths in
  check_bool "inferred something" true (inferred <> []);
  let acc = Gao_inference.accuracy ~truth:t inferred in
  check_bool
    (Printf.sprintf "accuracy %.2f > 0.5" acc)
    true (acc > 0.5)

let gao_inference_empty () =
  check_bool "no paths, no inference" true
    (Gao_inference.infer ~degree:(fun _ -> 0) [] = []);
  check_bool "accuracy of nothing" true
    (Gao_inference.accuracy ~truth:G.Topology.empty [] = 0.0)

let gao_inference_edges () =
  let a = asn 1 and b = asn 2 in
  check_bool "singleton paths carry no edges" true
    (Gao_inference.infer ~degree:(fun _ -> 1) [ [ a ]; [ b ] ] = []);
  (* The same edge observed from both directions with equal degrees splits
     the vote evenly, which the attack reads as peering. *)
  match Gao_inference.infer ~degree:(fun _ -> 1) [ [ a; b ]; [ b; a ] ] with
  | [ (x, y, rel) ] ->
      check_bool "edge normalized to (low, high)" true
        (G.Asn.equal x a && G.Asn.equal y b);
      check_bool "evenly split votes infer peering" true
        (G.Relationship.equal rel G.Relationship.Peer)
  | _ -> Alcotest.fail "expected exactly one inferred edge"

let suite =
  [
    ("prefix parse/print", `Quick, prefix_parse_print);
    ("prefix masks host bits", `Quick, prefix_masks_host_bits);
    ("prefix rejects malformed", `Quick, prefix_rejects);
    ("prefix contains", `Quick, prefix_contains);
    prefix_random_valid;
    ("route prepend/loop", `Quick, route_prepend);
    ("route strip private attrs", `Quick, route_strip_private);
    route_encode_injective;
    ("decision local pref", `Quick, decision_prefers_local_pref);
    ("decision short path", `Quick, decision_prefers_short_path);
    ("decision origin and med", `Quick, decision_origin_and_med);
    ("decision neighbor tiebreak", `Quick, decision_tiebreak_neighbor);
    ("decision empty", `Quick, decision_empty);
    decision_total;
    ("rib in/out", `Quick, rib_in_out);
    ("rib prefix listing", `Quick, rib_prefix_listing);
    ("relationship invert", `Quick, relationship_invert);
    ("gao-rexford export rule", `Quick, gao_rexford_export_rule);
    ("topology links and neighbors", `Quick, topology_links_and_neighbors);
    ("topology rejects self/duplicate", `Quick, topology_rejects_self_and_duplicate);
    ("topology clique and chain", `Quick, topology_clique_chain);
    ("topology hierarchy connected", `Quick, topology_hierarchy_connected);
    ("sim chain propagation", `Quick, sim_chain_propagation);
    ("sim withdraw", `Quick, sim_withdraw);
    ("sim withdraw leaves no stale state", `Quick, sim_withdraw_no_stale_state);
    ("sim run feeds obs counters", `Quick, sim_run_feeds_counters);
    ("sim gao-rexford valley-free", `Quick, sim_gao_rexford_valley_free);
    ("sim hierarchy full reachability", `Quick, sim_hierarchy_full_reachability);
    ("sim run stops at its message budget", `Quick, sim_message_budget);
    ("sim star: Figure 1 shape", `Quick, sim_star_min_at_center);
    ("update gen sorted and bursty", `Quick, update_gen_sorted_and_bursty);
    ("update gen batches partition", `Quick, update_gen_batches_partition);
    ("sim single-AS only route", `Quick, sim_single_as_only_route);
    ("update gen single-origin churn", `Quick, update_gen_single_origin_churn);
    ("sim all-peer clique no transit", `Quick, sim_peer_clique_no_transit);
    ("gao inference on hierarchy", `Quick, gao_inference_on_hierarchy);
    ("gao inference empty", `Quick, gao_inference_empty);
    ("gao inference edge cases", `Quick, gao_inference_edges);
    decision_one_pass_is_fold;
  ]
