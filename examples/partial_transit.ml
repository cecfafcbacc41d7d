(* Partial transit (§1): "network A ... might enter into a 'partial transit'
   relationship with network B and promise to deliver routes from, e.g.,
   European peers in preference to other routes."

   We model that with the Figure-2 promise: A exports to B some route via
   its ordinary providers N2..N4 *unless* the preferred peer N1 has a
   strictly shorter route.  The whole policy is written in the §4 policy
   language, compiled to a route-flow graph, statically checked against the
   promise, and then verified at run time with the generalized (§3.5-3.7)
   Merkle-tree protocol — driven by routes taken from a real (simulated)
   BGP convergence on a Gao-Rexford hierarchy.

     dune exec examples/partial_transit.exe *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg
module C = Pvr_crypto

let asn = G.Asn.of_int

let policy_src =
  {|
# AS1's configuration: partial transit towards AS100.
policy for AS1 {
  promise to AS100 = prefer AS11 AS12 AS13 unless-shorter AS10;

  neighbors AS10 AS11 AS12 AS13;
}
|}

let () =
  let rng = C.Drbg.of_int_seed 7 in

  (* 1. Parse and compile the configuration. *)
  let config =
    match R.Compiler.parse policy_src with
    | Ok c -> c
    | Error e ->
        Format.eprintf "config error: %a@." R.Compiler.pp_error e;
        exit 1
  in
  let neighbors = config.R.Compiler.neighbors in
  let compiled = R.Compiler.compile config in
  let beneficiary, promise, rfg =
    match compiled with [ x ] -> x | _ -> failwith "expected one promise"
  in
  Format.printf "Compiled promise: %s@." (R.Promise.describe promise);
  Format.printf "Route-flow graph:@.%a@." R.Rfg.pp rfg;

  (* 2. Static check (§2.2): does the graph implement the promise, and is it
     verifiable under the minimal access-control policy? *)
  let issues =
    R.Static_check.implements rfg ~promise ~beneficiary ~neighbors
  in
  Printf.printf "Static check: %d issues\n"
    (List.length issues);
  let alpha =
    P.Access_control.for_promise promise ~beneficiary ~neighbors
  in
  let access_issues =
    R.Static_check.verifiable_under rfg ~promise ~beneficiary ~neighbors
      ~visible:(fun ~viewer v -> P.Access_control.permits_vertex alpha ~viewer v)
  in
  Printf.printf "Minimum-access check (§4): %d issues\n"
    (List.length access_issues);

  (* 3. Produce realistic input routes: run BGP to convergence on a small
     provider hierarchy and take A's Adj-RIB-In. *)
  let topo = ref G.Topology.empty in
  let a = asn 1 in
  List.iter
    (fun n -> topo := G.Topology.add_link !topo ~a ~b:n ~rel_ab:G.Relationship.Provider)
    neighbors;
  (* Each provider reaches a common origin AS over paths of different
     lengths, built as provider chains hanging off each N_i. *)
  let origin = asn 900 in
  List.iteri
    (fun i n ->
      let chain =
        List.init i (fun j -> asn (100 * (i + 1) + j))
      in
      let rec wire last = function
        | [] -> G.Topology.add_link !topo ~a:last ~b:origin ~rel_ab:G.Relationship.Customer
        | x :: rest ->
            topo := G.Topology.add_link !topo ~a:last ~b:x ~rel_ab:G.Relationship.Customer;
            wire x rest
      in
      topo := wire n chain)
    neighbors;
  let sim = G.Simulator.create !topo in
  let prefix = G.Prefix.of_string "198.51.100.0/24" in
  G.Simulator.originate sim ~asn:origin prefix;
  let msgs = G.Simulator.run sim in
  Printf.printf "\nBGP converged after %d messages.\n" msgs;
  let inputs =
    List.filter_map
      (fun n ->
        Option.map (fun r -> (n, r)) (G.Rib.get_in (G.Simulator.rib sim a) ~neighbor:n prefix))
      neighbors
  in
  List.iter
    (fun ((n : G.Asn.t), r) ->
      Format.printf "  A's Adj-RIB-In from %a: %a@." G.Asn.pp n G.Route.pp r)
    inputs;

  (* 4. Run the generalized PVR round on those routes. *)
  let keyring =
    P.Keyring.create ~bits:1024 (C.Drbg.split rng "keys")
      (a :: beneficiary :: neighbors)
  in
  let report =
    P.Runner.graph_round rng keyring ~prover:a ~beneficiary ~epoch:1 ~prefix
      ~promise ~routes:inputs
  in
  Printf.printf
    "\nPVR graph round: detected=%b (honest A), %d messages, commitment %d bytes\n"
    report.P.Runner.detected report.P.Runner.messages
    report.P.Runner.commit_bytes;
  if report.P.Runner.detected then begin
    print_endline "An honest round raised evidence: the checks are broken.";
    exit 1
  end;
  print_endline "The promise held, and no neighbor learned another's routes."
