(* Byzantine detection: the §2.3 properties demonstrated across every
   misbehaviour this library can inject (the E8 matrix, narrated).

     dune exec examples/byzantine_detection.exe *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int

let detector_name = function
  | P.Adversary.Beneficiary -> "B"
  | P.Adversary.Provider n -> G.Asn.to_string n
  | P.Adversary.Gossip -> "gossip"

let () =
  let rng = C.Drbg.of_int_seed 99 in
  let a = asn 1 and b = asn 100 in
  let providers = List.init 3 (fun i -> asn (10 + i)) in
  let keyring = P.Keyring.create ~bits:1024 rng (a :: b :: providers) in
  let prefix = G.Prefix.of_string "192.0.2.0/24" in
  let route n len =
    let path = List.init len (fun j -> if j = 0 then n else asn (8000 + j)) in
    let base = G.Route.originate ~asn:n prefix in
    { base with G.Route.as_path = path; next_hop = n }
  in
  let routes = List.mapi (fun i n -> (n, route n (i + 2))) providers in

  print_endline "Scenario: A promised B the shortest route from {N1,N2,N3}.";
  print_endline "Provider route lengths: 2, 3, 4.\n";

  List.iter
    (fun beh ->
      Printf.printf "--- A behaves: %s ---\n" (P.Adversary.to_string beh);
      let r =
        P.Runner.min_round beh rng keyring ~prover:a ~beneficiary:b ~epoch:1
          ~prefix ~routes
      in
      if r.P.Runner.raised = [] then
        print_endline "  all checks passed; nobody accuses A."
      else
        List.iter
          (fun (who, e, v) ->
            Printf.printf "  detected by %-6s: %s\n" (detector_name who)
              (P.Evidence.describe e);
            Printf.printf "  judge verdict   : %s\n"
              (P.Judge.verdict_to_string v))
          r.P.Runner.judged;
      print_newline ())
    P.Adversary.all;

  (* Accuracy in the other direction: a *false* accusation against an honest
     A must fail — A disproves it by answering the judge's challenge. *)
  print_endline "--- B falsely accuses an honest A of suppressing the export ---";
  let announces =
    List.map
      (fun (n, r) ->
        P.Runner.announce_of_route keyring ~provider:n ~prover:a ~epoch:2 r)
      routes
  in
  let honest =
    P.Runner.prove rng keyring ~prover:a ~beneficiary:b ~epoch:2 ~prefix
      ~inputs:announces
  in
  let false_claim =
    P.Evidence.Missing_export_claim
      {
        commit = P.Runner.commit_for honest b;
        openings = (P.Runner.beneficiary_disclosure honest).bd_openings;
        claimant = b;
      }
  in
  Printf.printf "  judge verdict: %s (A produced the export on challenge)\n"
    (P.Judge.verdict_to_string
       (P.Judge.evaluate keyring ~respond:(P.Runner.respond honest)
          false_claim))
