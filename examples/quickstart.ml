(* Quickstart: the paper's Figure-1 scenario end to end.

   Network A is connected to providers N1..N4 and a beneficiary B.  A has
   promised B to export the shortest route it receives from the N_i.  We run
   one §3.3 verification round with an honest A, then with an A that breaks
   the promise, and show B obtaining judge-proof evidence.

     dune exec examples/quickstart.exe *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int

let () =
  let rng = C.Drbg.of_int_seed 42 in
  let a = asn 1 and b = asn 100 in
  let providers = List.init 4 (fun i -> asn (10 + i)) in

  (* 1. Every participant has a signing key (S-BGP-style PKI assumption). *)
  Printf.printf "Generating keys for A, B and %d providers...\n%!"
    (List.length providers);
  let keyring = P.Keyring.create ~bits:1024 rng (a :: b :: providers) in

  (* 2. The providers announce routes to A: N1 the longest, N4 the shortest. *)
  let prefix = G.Prefix.of_string "203.0.113.0/24" in
  let route n len =
    let path = List.init len (fun j -> if j = 0 then n else asn (8000 + j)) in
    let base = G.Route.originate ~asn:n prefix in
    { base with G.Route.as_path = path; next_hop = n }
  in
  let routes = List.mapi (fun i n -> (n, route n (5 - i))) providers in
  List.iter
    (fun ((n : G.Asn.t), r) ->
      Format.printf "  %a announces %a (length %d)@." G.Asn.pp n G.Route.pp r
        (G.Route.path_length r))
    routes;

  (* 3. One honest verification round: A commits to the threshold bits,
     everyone gossips, discloses, checks. *)
  let round behaviour =
    P.Runner.min_round behaviour rng keyring ~prover:a ~beneficiary:b ~epoch:1
      ~prefix ~routes
  in
  let honest = round P.Adversary.Honest in
  Printf.printf "\nHonest A:   detected=%b  (no party saw anything wrong)\n"
    honest.P.Runner.detected;

  (* 4. Now A cheats: it exports a longer route than it promised. *)
  let cheating = round P.Adversary.Export_nonminimal in
  Printf.printf "Cheating A: detected=%b  convicted=%b\n"
    cheating.P.Runner.detected cheating.P.Runner.convicted;
  List.iter
    (fun (_, e, v) ->
      Printf.printf "  evidence: %s -> judge says %s\n" (P.Evidence.describe e)
        (P.Judge.verdict_to_string v))
    cheating.P.Runner.judged;
  if honest.P.Runner.detected || not cheating.P.Runner.convicted then begin
    print_endline "The round accused an honest A or let a cheat go.";
    exit 1
  end;

  (* 5. Confidentiality: B learned the bits b_1..b_k, but every one of them
     is derivable from the exported route + the promise — zero excess. *)
  let exported = Some (route (List.nth providers 3) 2) in
  let baseline = P.Leakage.plain_bgp_beneficiary ~exported in
  let observed =
    P.Leakage.pvr_min_beneficiary ~k:8
      ~openings:(List.init 8 (fun i -> (i + 1, 2 <= i + 1)))
      ~exported
  in
  Printf.printf "\nConfidentiality: B's excess knowledge beyond plain BGP = %d facts\n"
    (P.Leakage.excess_count ~baseline ~observed);
  print_endline "Done.  See examples/partial_transit.ml for a realistic policy."
