(* Internet-scale layer: the synthetic power-law generator's Gao–Rexford
   invariants, hash-consed route interning, and the differential
   oracle — interned and plain representations must produce
   identical Decision outcomes, RIB digests and engine report digests on
   random topologies and churn schedules. *)

module P = Pvr
module E = Pvr_engine.Engine
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Interning is a process-wide toggle: every test that flips it restores the
   default so suites running later see the plain representation. *)
let with_intern enabled f =
  Fun.protect
    ~finally:(fun () -> G.Intern.set_enabled false)
    (fun () ->
      G.Intern.set_enabled enabled;
      f ())

(* ---- generator: structural invariants -------------------------------------------- *)

let gen_topo ?(ases = 60) seed =
  G.Topology.generate (C.Drbg.of_int_seed seed) ~ases ()

let connected t =
  match G.Topology.ases t with
  | [] -> true
  | root :: _ ->
      let seen = Hashtbl.create 64 in
      let rec bfs = function
        | [] -> ()
        | x :: rest ->
            if Hashtbl.mem seen x then bfs rest
            else begin
              Hashtbl.add seen x ();
              bfs (List.map fst (G.Topology.neighbors t x) @ rest)
            end
      in
      bfs [ root ];
      List.for_all (Hashtbl.mem seen) (G.Topology.ases t)

let generate_deterministic =
  qtest "generate: deterministic per seed" QCheck2.Gen.small_int (fun seed ->
      let links t =
        List.map
          (fun (l : G.Topology.link) -> (l.G.Topology.a, l.G.Topology.b, l.G.Topology.rel_ab))
          (G.Topology.links t)
      in
      links (gen_topo seed) = links (gen_topo seed))

let generate_connected =
  qtest "generate: connected" QCheck2.Gen.(1 -- 200) (fun ases ->
      connected (gen_topo ~ases 7))

let generate_provider_order =
  qtest "generate: providers have smaller ASNs (acyclic)"
    QCheck2.Gen.small_int (fun seed ->
      let t = gen_topo seed in
      List.for_all
        (fun x ->
          List.for_all
            (fun (y, rel) ->
              (* [rel] is what [y] is to [x]: a provider must predate its
                 customer in attachment order, so the customer/provider
                 digraph cannot contain a cycle. *)
              not (G.Relationship.equal rel G.Relationship.Provider)
              || G.Asn.compare y x < 0)
            (G.Topology.neighbors t x))
        (G.Topology.ases t))

let generate_every_as_reachable_up () =
  (* Every non-clique AS has at least one provider; the clique peers. *)
  let t = gen_topo ~ases:120 3 in
  let tiers = G.Topology.tiers t in
  let clique =
    List.filter (fun a -> G.Asn.Map.find a tiers = 0) (G.Topology.ases t)
  in
  check_bool "clique is small" true (List.length clique <= 16);
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (G.Asn.equal a b) then
            check_bool "tier-1 ASes peer" true
              (G.Topology.relationship t a b = Some G.Relationship.Peer))
        clique)
    clique;
  List.iter
    (fun a ->
      if G.Asn.Map.find a tiers > 0 then
        check_bool
          (Printf.sprintf "AS %d has a provider" (G.Asn.to_int a))
          true
          (List.exists
             (fun (_, rel) -> G.Relationship.equal rel G.Relationship.Provider)
             (G.Topology.neighbors t a)))
    (G.Topology.ases t)

let generate_tiered_prefixes () =
  let t = gen_topo ~ases:150 11 in
  let plan = G.Topology.tiered_prefixes t in
  check_int "one prefix per AS" (G.Topology.size t) (List.length plan);
  let churn_space = G.Prefix.of_string "10.0.0.0/8" in
  List.iter
    (fun (a, p) ->
      check_bool "disjoint from churn 10/8" false
        (G.Prefix.contains churn_space p || G.Prefix.contains p churn_space);
      let len_class =
        match Option.get (G.Topology.tier t a) with
        | 0 -> 8
        | 1 -> 16
        | _ -> 24
      in
      check_int
        (Printf.sprintf "AS %d prefix length" (G.Asn.to_int a))
        len_class
        (let { G.Prefix.len; _ } = p in
         len))
    plan;
  (* Pairwise disjoint: no plan prefix contains another. *)
  List.iteri
    (fun i (_, p) ->
      List.iteri
        (fun j (_, q) ->
          if i <> j then
            check_bool "plan prefixes disjoint" false (G.Prefix.contains p q))
        plan)
    plan

(* ---- generator: valley-free behaviour -------------------------------------------- *)

(* Classify each propagation step of [path] (nearest-first, as stored in a
   route) walking from the origin towards the vantage point, and require the
   Gao–Rexford shape: uphill (from customers) first, then at most one
   peer-crossing, then downhill only. *)
let valley_free t path =
  let steps =
    let rec pairs = function
      | x :: (y :: _ as rest) -> (x, y) :: pairs rest
      | _ -> []
    in
    (* reversed: origin first *)
    pairs (List.rev path)
  in
  let ok = ref true in
  let downhill = ref false in
  List.iter
    (fun (sender, receiver) ->
      match G.Topology.relationship t receiver sender with
      | None -> ok := false (* route crossed a non-existent link *)
      | Some G.Relationship.Customer -> if !downhill then ok := false
      | Some G.Relationship.Peer ->
          if !downhill then ok := false;
          downhill := true
      | Some G.Relationship.Provider -> downhill := true)
    steps;
  !ok

let generate_valley_free =
  qtest ~count:10 "generate: simulated paths are valley-free"
    QCheck2.Gen.small_int (fun seed ->
      let t = gen_topo ~ases:50 seed in
      let sim = G.Simulator.create t in
      (* Originate from a handful of stubs (latest arrivals). *)
      let origins = List.init 3 (fun i -> asn (50 - i)) in
      List.iteri
        (fun i o ->
          G.Simulator.originate sim ~asn:o
            (G.Prefix.make ~addr:((172 + i) lsl 24) ~len:8))
        origins;
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
      paths <> [] && List.for_all (valley_free t) paths)

let generate_gao_inference_sane () =
  (* The inference attack should beat coin-flipping on a generated
     power-law internet, exactly as on the handcrafted hierarchy. *)
  let t = gen_topo ~ases:60 17 in
  let sim = G.Simulator.create t in
  List.iter
    (fun (a, p) -> G.Simulator.originate sim ~asn:a p)
    (List.filteri (fun i _ -> i mod 4 = 0) (G.Topology.tiered_prefixes t));
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
  let inferred = G.Gao_inference.infer ~degree:(G.Topology.degree t) paths in
  check_bool "inferred something" true (inferred <> []);
  check_bool "accuracy beats chance" true
    (G.Gao_inference.accuracy ~truth:t inferred > 0.5)

(* ---- route: structural equality and ordering -------------------------------------- *)

let mk_route ~addr ~len ~path ~lp ~med ~origin ~communities =
  match path with
  | [] -> invalid_arg "mk_route: empty path"
  | first :: _ ->
      {
        G.Route.prefix = G.Prefix.make ~addr ~len;
        as_path = List.map asn path;
        next_hop = asn first;
        local_pref = lp;
        med;
        origin;
        communities;
      }

let route_gen =
  let open QCheck2.Gen in
  let origin =
    oneofl [ G.Route.Igp; G.Route.Egp; G.Route.Incomplete ]
  in
  let* addr = int_bound 0xFF
  and* len = 8 -- 32
  and* path = list_size (1 -- 5) (1 -- 50)
  and* lp = 0 -- 200
  and* med = 0 -- 3
  and* origin = origin
  and* communities = list_size (0 -- 2) (pair (0 -- 3) (0 -- 3)) in
  return
    (mk_route ~addr:(addr lsl 24) ~len ~path ~lp ~med ~origin ~communities)

(* A structurally-equal but physically-distinct copy. *)
let deep_copy (r : G.Route.t) =
  {
    r with
    G.Route.as_path = List.map Fun.id r.G.Route.as_path;
    communities = List.map (fun c -> c) r.G.Route.communities;
  }

let route_equal_structural =
  qtest ~count:200 "route: equal is structural (copies compare equal)"
    route_gen (fun r ->
      let c = deep_copy r in
      (not (r == c)) && G.Route.equal r c && G.Route.compare r c = 0)

let route_equal_iff_encode =
  qtest ~count:200 "route: equal iff encodings match"
    QCheck2.Gen.(pair route_gen route_gen) (fun (a, b) ->
      G.Route.equal a b = (G.Route.encode a = G.Route.encode b))

let route_compare_coherent =
  qtest ~count:200 "route: compare is antisymmetric and agrees with equal"
    QCheck2.Gen.(pair route_gen route_gen) (fun (a, b) ->
      let c = G.Route.compare a b in
      Int.compare c 0 = -Int.compare (G.Route.compare b a) 0
      && (c = 0) = G.Route.equal a b)

(* ---- interning -------------------------------------------------------------------- *)

let sample_route i =
  mk_route ~addr:(10 lsl 24) ~len:24
    ~path:[ 3 + (i mod 4); 2; 1 ]
    ~lp:100 ~med:0 ~origin:G.Route.Igp ~communities:[]

let intern_canonicalizes () =
  with_intern true @@ fun () ->
  G.Intern.reset ();
  let a = G.Intern.route (sample_route 0) in
  let b = G.Intern.route (deep_copy (sample_route 0)) in
  check_bool "same canonical representative" true (a == b);
  check_bool "structurally intact" true (G.Route.equal a (sample_route 0));
  let c = G.Intern.route (sample_route 1) in
  check_bool "distinct routes stay distinct" false (a == c);
  (* Shared tail: both paths end [2; 1]; whole paths differ, so each path
     interns separately, but equal paths share one spine. *)
  let p1 = G.Intern.path [ asn 9; asn 2; asn 1 ] in
  let p2 = G.Intern.path (List.map Fun.id [ asn 9; asn 2; asn 1 ]) in
  check_bool "equal paths share storage" true (p1 == p2)

let intern_ids_dense () =
  with_intern true @@ fun () ->
  G.Intern.reset ();
  (* 6 inserts of 4 distinct routes. *)
  for i = 0 to 5 do
    ignore (G.Intern.route (sample_route i) : G.Route.t)
  done;
  let stats = G.Intern.stats () in
  check_int "live routes" 4 stats.G.Intern.live_routes;
  check_bool "live paths bounded" true (stats.G.Intern.live_paths <= 4)

let intern_encode_memo () =
  with_intern true @@ fun () ->
  G.Intern.reset ();
  let r = sample_route 2 in
  check_string "memoized encode bytes" (G.Route.encode r) (G.Intern.encode r);
  check_string "hit returns same bytes" (G.Route.encode r)
    (G.Intern.encode (deep_copy r));
  check_bool "encode table populated" true
    ((G.Intern.stats ()).G.Intern.memoized_encodes = 1)

let intern_disabled_is_identity () =
  G.Intern.set_enabled false;
  let r = sample_route 3 in
  check_bool "route is physical identity" true (G.Intern.route r == r);
  check_bool "path is physical identity" true
    (G.Intern.path r.G.Route.as_path == r.G.Route.as_path);
  check_string "encode falls through" (G.Route.encode r) (G.Intern.encode r);
  check_int "tables empty" 0 (G.Intern.stats ()).G.Intern.live_routes

let rib_digest_intern_invariant () =
  let fill () =
    let rib = G.Rib.create [| asn 2; asn 3; asn 4 |] in
    G.Rib.set_in rib ~neighbor:(asn 2) (sample_route 0).G.Route.prefix
      (Some (sample_route 0));
    G.Rib.set_in rib ~neighbor:(asn 3) (sample_route 1).G.Route.prefix
      (Some (sample_route 1));
    G.Rib.set_best rib (sample_route 0).G.Route.prefix (Some (sample_route 0));
    G.Rib.set_out rib ~neighbor:(asn 4) (sample_route 0).G.Route.prefix
      (Some (sample_route 0));
    rib
  in
  let plain = G.Rib.digest (fill ()) in
  let interned = with_intern true (fun () -> G.Rib.digest (fill ())) in
  check_string "digest invariant under interning" plain interned;
  let rib = fill () in
  check_string "cached = recomputed" (G.Rib.digest_full rib) (G.Rib.digest rib);
  G.Rib.set_best rib (sample_route 0).G.Route.prefix None;
  let changed = G.Rib.digest rib in
  check_bool "digest tracks content" false (changed = plain);
  check_string "a setter marks its entry" (G.Rib.digest_full rib) changed;
  check_string "an empty RIB digests to nothing" ""
    (G.Rib.digest (G.Rib.create [| asn 2 |]))

(* ---- differential oracle ----------------------------------------------------------- *)

(* One 16-AS keyring shared by every engine oracle test (keygen dominates). *)
let oracle_ases = 16

let oracle_keyring =
  lazy
    (P.Keyring.create ~bits:512
       (C.Drbg.of_int_seed 990)
       (List.init oracle_ases (fun i -> asn (i + 1))))

(* Run [epochs] of the same seeded workload and return per-epoch report
   digests, the final RIB digest, and every (AS, prefix, best-route
   encoding) decision outcome. *)
let oracle_run ?strategy ~seed ~intern ~jobs ~cache () =
  with_intern intern @@ fun () ->
  let topo =
    G.Topology.generate (C.Drbg.of_int_seed seed) ~ases:oracle_ases ()
  in
  let origins = List.init 3 (fun i -> asn (oracle_ases - i)) in
  let sim = G.Simulator.create topo in
  let churn =
    G.Update_gen.Churn.create ~anycast:1 ~origins ~prefixes_per_origin:2 ()
  in
  let churn_rng = C.Drbg.of_int_seed (seed + 1) in
  let eng =
    E.create ~jobs ~cache ~salt_every:2 ?strategy
      (C.Drbg.of_int_seed (seed + 2))
      (Lazy.force oracle_keyring) ~topology:topo ~sim ()
  in
  let digests = ref [] in
  for i = 1 to 3 do
    let apply sim =
      if i = 1 then List.length (G.Update_gen.Churn.seed churn sim)
      else
        List.length (G.Update_gen.Churn.step churn_rng ~turnover:0.4 churn sim)
    in
    let r = E.epoch ~apply eng in
    digests := r.E.ep_digest :: !digests
  done;
  let decisions =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun p ->
            G.Simulator.best_route sim ~asn:a p
            |> Option.map (fun r ->
                   (G.Asn.to_int a, G.Prefix.to_string p, G.Route.encode r)))
          (G.Rib.prefixes (G.Simulator.rib sim a)))
      (G.Topology.ases topo)
  in
  (List.rev !digests, E.rib_digest eng, decisions)

let oracle_intern_transparent () =
  List.iter
    (fun seed ->
      let base = oracle_run ~seed ~intern:false ~jobs:1 ~cache:true () in
      let interned = oracle_run ~seed ~intern:true ~jobs:2 ~cache:true () in
      let digests0, rib0, dec0 = base and digests1, rib1, dec1 = interned in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: epoch digests" seed)
        digests0 digests1;
      check_string (Printf.sprintf "seed %d: rib digest" seed) rib0 rib1;
      check_bool
        (Printf.sprintf "seed %d: decision outcomes" seed)
        true (dec0 = dec1);
      check_bool "outcomes non-trivial" true (dec0 <> []))
    [ 2; 29; 631 ]

let oracle_jobs_invariant () =
  let seed = 77 in
  let base = oracle_run ~seed ~intern:true ~jobs:1 ~cache:true () in
  List.iter
    (fun (jobs, cache) ->
      let d, rib, dec = oracle_run ~seed ~intern:true ~jobs ~cache () in
      let d0, rib0, dec0 = base in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d cache=%b" jobs cache)
        d0 d;
      check_string "rib" rib0 rib;
      check_bool "decisions" true (dec = dec0))
    [ (2, true); (3, true); (1, false) ]

(* PR 6: adversarial rounds keep the whole determinism contract — a
   strategy mixing fast and fault-runner paths (cross-shard equivocation
   picks its dirty subset by vertex hash) must produce byte-identical
   digests and decisions for any jobs/intern/cache setting. *)
let oracle_adversary_invariant () =
  let strategy = P.Adversary.Cross_shard { shards = 4; target = 1 } in
  let seed = 91 in
  let base =
    oracle_run ~strategy ~seed ~intern:true ~jobs:1 ~cache:true ()
  in
  let d0, rib0, dec0 = base in
  List.iter
    (fun (intern, jobs, cache) ->
      let d, rib, dec = oracle_run ~strategy ~seed ~intern ~jobs ~cache () in
      Alcotest.(check (list string))
        (Printf.sprintf "intern=%b jobs=%d cache=%b" intern jobs cache)
        d0 d;
      check_string "rib" rib0 rib;
      check_bool "decisions" true (dec = dec0))
    [ (false, 2, true); (true, 3, true); (true, 1, false) ]

let suite =
  [
    generate_deterministic;
    generate_connected;
    generate_provider_order;
    ("generate: clique peers, everyone has a provider", `Quick,
     generate_every_as_reachable_up);
    ("generate: tiered address plan", `Quick, generate_tiered_prefixes);
    generate_valley_free;
    ("generate: gao inference beats chance", `Quick, generate_gao_inference_sane);
    route_equal_structural;
    route_equal_iff_encode;
    route_compare_coherent;
    ("intern: canonical representatives", `Quick, intern_canonicalizes);
    ("intern: dense stable ids", `Quick, intern_ids_dense);
    ("intern: memoized encode", `Quick, intern_encode_memo);
    ("intern: disabled is identity", `Quick, intern_disabled_is_identity);
    ("rib digest: interning-invariant", `Quick, rib_digest_intern_invariant);
    ("oracle: interning transparent end-to-end", `Slow, oracle_intern_transparent);
    ("oracle: digest invariant across jobs/cache", `Slow,
     oracle_jobs_invariant);
    ("oracle: adversarial runs digest-invariant", `Slow,
     oracle_adversary_invariant);
  ]
