(* Internet-scale layer: the synthetic power-law generator's Gao–Rexford
   invariants, the route encoding's bytes against the list composition it
   replaced, and the differential oracle — every jobs and cache setting
   must produce identical Decision outcomes, RIB digests and engine report
   digests on random topologies and churn schedules. *)

module P = Pvr
module E = Pvr_engine.Engine
module G = Pvr_bgp
module C = Pvr_crypto
module Gao_inference = Pvr_baselines.Gao_inference

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

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
  let inferred = Gao_inference.infer ~degree:(G.Topology.degree t) paths in
  check_bool "inferred something" true (inferred <> []);
  check_bool "accuracy beats chance" true
    (Gao_inference.accuracy ~truth:t inferred > 0.5)

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

(* ---- route encoding: bytes ---------------------------------------------------------- *)

(* The dotted prefix text as [Printf] wrote it before the digit writer. *)
let printf_prefix (p : G.Prefix.t) =
  let a = p.G.Prefix.addr in
  Printf.sprintf "%d.%d.%d.%d/%d" (a lsr 24 land 0xff) (a lsr 16 land 0xff)
    (a lsr 8 land 0xff) (a land 0xff) p.G.Prefix.len

(* The encoding as a composition of list encodings and 4-byte strings, as
   [Route.encode] was written before it wrote its bytes in place. *)
let reference_encode (r : G.Route.t) =
  let be32 = C.Bytes_util.be32 in
  C.Codec.encode_list
    [
      printf_prefix r.G.Route.prefix;
      C.Codec.encode_list
        (List.map (fun a -> be32 (G.Asn.to_int a)) r.G.Route.as_path);
      be32 (G.Asn.to_int r.G.Route.next_hop);
      be32 r.G.Route.local_pref;
      be32 r.G.Route.med;
      be32
        (match r.G.Route.origin with
        | G.Route.Igp -> 0
        | Egp -> 1
        | Incomplete -> 2);
      C.Codec.encode_list
        (List.map (fun (a, v) -> be32 a ^ be32 v) r.G.Route.communities);
    ]

(* Prefixes at the digit writer's edges: every octet of one to three
   digits, lengths 0 and 32. *)
let prefix_gen =
  let open QCheck2.Gen in
  let octet = oneof [ oneofl [ 0; 9; 10; 99; 100; 255 ]; int_bound 255 ] in
  let* a = octet and* b = octet and* c = octet and* d = octet in
  let* len = oneof [ oneofl [ 0; 32 ]; int_bound 32 ] in
  return
    (G.Prefix.make ~addr:((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d) ~len)

(* Routes at the encoding's edges: empty paths and community lists, ASNs
   0 and 2^32 - 1, and attributes outside 32 bits, of which both encoders
   keep the low 32. *)
let edge_route_gen =
  let open QCheck2.Gen in
  let word = oneof [ oneofl [ 0; 1; 0xFFFFFFFF ]; int_bound 0xFFFFFFFF ] in
  let attr = oneof [ word; oneofl [ -1; min_int; (1 lsl 40) + 5 ] ] in
  let asn_gen = map asn word in
  let* prefix = prefix_gen
  and* as_path = list_size (0 -- 6) asn_gen
  and* next_hop = asn_gen
  and* local_pref = attr
  and* med = attr
  and* origin = oneofl [ G.Route.Igp; G.Route.Egp; G.Route.Incomplete ]
  and* communities = list_size (0 -- 3) (pair attr attr) in
  return
    { G.Route.prefix; as_path; next_hop; local_pref; med; origin; communities }

let route_encode_reference =
  qtest ~count:500 "route: encode ≡ reference list encoding" edge_route_gen
    (fun r -> G.Route.encode r = reference_encode r)

let prefix_text_printf =
  qtest ~count:500 "prefix: to_string ≡ Printf form" prefix_gen (fun p ->
      let s = G.Prefix.to_string p in
      s = printf_prefix p && String.length s = G.Prefix.text_length p)

(* [write] at an offset lays down exactly [encode]'s bytes, returns the
   offset past them and leaves the bytes around them alone; [absorb]
   hashes the same bytes. *)
let route_write_in_place =
  qtest ~count:300 "route: write at an offset ≡ encode"
    QCheck2.Gen.(pair edge_route_gen (0 -- 9))
    (fun (r, off) ->
      let e = G.Route.encode r in
      let n = G.Route.encoded_length r in
      let buf = Bytes.make (off + n + 3) '#' in
      let stop = G.Route.write r buf off in
      let ctx = C.Sha256.init () in
      G.Route.absorb ctx r;
      n = String.length e && stop = off + n
      && Bytes.sub_string buf off n = e
      && Bytes.sub_string buf 0 off = String.make off '#'
      && Bytes.sub_string buf stop 3 = "###"
      && C.Sha256.finalize ctx = C.Sha256.digest e)

(* A buffer the bytes do not fit is refused before anything is written. *)
let route_write_out_of_range () =
  let r =
    mk_route ~addr:(10 lsl 24) ~len:24 ~path:[ 3; 2; 1 ] ~lp:100 ~med:0
      ~origin:G.Route.Igp ~communities:[ (1, 2) ]
  in
  let n = G.Route.encoded_length r in
  List.iter
    (fun (size, off) ->
      let buf = Bytes.make size '#' in
      let what = Printf.sprintf "size %d, offset %d" size off in
      check_bool (what ^ " raises") true
        (match G.Route.write r buf off with
        | _ -> false
        | exception Invalid_argument _ -> true);
      check_string (what ^ " leaves the buffer") (String.make size '#')
        (Bytes.to_string buf))
    [ (n - 1, 0); (n, 1); (n + 4, -1); (n, max_int); (0, 0) ]

let sample_route i =
  mk_route ~addr:(10 lsl 24) ~len:24
    ~path:[ 3 + (i mod 4); 2; 1 ]
    ~lp:100 ~med:0 ~origin:G.Route.Igp ~communities:[]

(* The RIB digest reads route contents only: a RIB whose slots share one
   route value and one holding a separate copy per slot digest alike. *)
let rib_digest_sharing_invariant () =
  let fill copy =
    let rib = G.Rib.create [| asn 2; asn 3; asn 4 |] in
    let r0 = sample_route 0 in
    let p = r0.G.Route.prefix in
    G.Rib.set_in rib ~neighbor:(asn 2) p (Some (copy r0));
    G.Rib.set_in rib ~neighbor:(asn 3) p (Some (copy (sample_route 1)));
    G.Rib.set_best rib p (Some (copy r0));
    G.Rib.set_out rib ~neighbor:(asn 4) p (Some (copy r0));
    rib
  in
  let plain = G.Rib.digest (fill Fun.id) in
  check_string "digest invariant under sharing" plain
    (G.Rib.digest (fill deep_copy));
  let rib = fill Fun.id in
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
let oracle_run ?strategy ~seed ~jobs ~cache () =
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

(* Every seed's digests and decisions at jobs 1 are reproduced by the
   pool and by the uncached engine. *)
let oracle_jobs_invariant () =
  List.iter
    (fun (seed, settings) ->
      let d0, rib0, dec0 = oracle_run ~seed ~jobs:1 ~cache:true () in
      check_bool "outcomes non-trivial" true (dec0 <> []);
      List.iter
        (fun (jobs, cache) ->
          let d, rib, dec = oracle_run ~seed ~jobs ~cache () in
          let what = Printf.sprintf "seed %d jobs=%d cache=%b" seed jobs cache in
          Alcotest.(check (list string)) (what ^ ": epoch digests") d0 d;
          check_string (what ^ ": rib digest") rib0 rib;
          check_bool (what ^ ": decision outcomes") true (dec = dec0))
        settings)
    [
      (2, [ (2, true) ]);
      (29, [ (2, true) ]);
      (631, [ (2, true) ]);
      (77, [ (2, true); (3, true); (1, false) ]);
    ]

(* Adversarial rounds keep the whole determinism contract — a strategy
   mixing fast and fault-runner paths (cross-shard equivocation picks its
   dirty subset by vertex hash) must produce byte-identical digests and
   decisions for any jobs/cache setting. *)
let oracle_adversary_invariant () =
  let strategy = P.Adversary.Cross_shard { shards = 4; target = 1 } in
  let seed = 91 in
  let d0, rib0, dec0 = oracle_run ~strategy ~seed ~jobs:1 ~cache:true () in
  List.iter
    (fun (jobs, cache) ->
      let d, rib, dec = oracle_run ~strategy ~seed ~jobs ~cache () in
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d cache=%b" jobs cache)
        d0 d;
      check_string "rib" rib0 rib;
      check_bool "decisions" true (dec = dec0))
    [ (2, true); (3, true); (1, false) ]

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
    route_encode_reference;
    prefix_text_printf;
    route_write_in_place;
    ("route: write refuses what does not fit", `Quick,
     route_write_out_of_range);
    ("rib digest: sharing-invariant", `Quick, rib_digest_sharing_invariant);
    ("oracle: digest invariant across jobs/cache", `Slow,
     oracle_jobs_invariant);
    ("oracle: adversarial runs digest-invariant", `Slow,
     oracle_adversary_invariant);
  ]
