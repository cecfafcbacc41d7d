(* Promise 4 (§2): "The route you get is no longer than what I tell anybody
   else."  The paper lists this promise without a mechanism; this
   library has A commit to one §3.3 threshold vector over its exports
   (Pvr.Proto_no_shorter).  Here AS1 serves three customers and secretly
   plays favourites — the disadvantaged customers catch it with
   self-contained evidence.  Exits 1 unless the fair round is clean and
   both disadvantaged customers get A convicted.

     dune exec examples/promise_four.exe *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int

let () =
  let rng = C.Drbg.of_int_seed 44 in
  let a = asn 1 in
  let customers = [ asn 100; asn 200; asn 300 ] in
  let provider = asn 10 in
  let keyring = P.Keyring.create ~bits:1024 rng (a :: provider :: customers) in
  let prefix = G.Prefix.of_string "203.0.113.0/24" in

  let input len =
    let path = List.init len (fun j -> if j = 0 then provider else asn (8000 + j)) in
    let base = G.Route.originate ~asn:provider prefix in
    let route = { base with G.Route.as_path = path; next_hop = provider } in
    P.Runner.announce_of_route keyring ~provider ~prover:a ~epoch:1 route
  in

  (* Each customer's verdicts, one per piece of evidence it raised. *)
  let run description exports =
    Printf.printf "--- %s ---\n" description;
    let out =
      P.Proto_no_shorter.prove ~max_path_len:8 rng keyring ~prover:a
        ~beneficiaries:customers ~epoch:1 ~prefix ~exports
    in
    List.map
      (fun m ->
        let evs =
          P.Proto_no_shorter.check_beneficiary keyring ~me:m
            ~commit:out.P.Proto_no_shorter.commit
            ~disclosure:(List.assoc m out.P.Proto_no_shorter.per_beneficiary)
        in
        if evs = [] then
          Printf.printf "  %s: satisfied\n" (G.Asn.to_string m);
        ( m,
          List.map
            (fun e ->
              let v = P.Judge.evaluate_offline keyring e in
              Printf.printf "  %s: VIOLATION - %s [judge: %s]\n"
                (G.Asn.to_string m) (P.Evidence.describe e)
                (P.Judge.verdict_to_string v);
              v)
            evs ))
      customers
  in

  (* Fair service: everyone gets a route of length 3. *)
  let fair =
    run "A treats all three customers equally (length 3)"
      (List.map (fun m -> (m, input 3)) customers)
  in
  print_newline ();

  (* Favouritism: AS200 gets a length-2 route, the others length 4. *)
  let unfair =
    run "A gives AS200 a strictly shorter route"
      [ (asn 100, input 4); (asn 200, input 2); (asn 300, input 4) ]
  in
  print_newline ();

  print_endline
    "Each bit a customer sees is implied by the promise and its own route,\n\
     so nothing about the other customers' routes leaks.";
  let clean round m = List.assoc m round = [] in
  let guilty round m = List.mem P.Judge.Guilty (List.assoc m round) in
  if
    not
      (List.for_all (clean fair) customers
      && guilty unfair (asn 100)
      && guilty unfair (asn 300)
      && clean unfair (asn 200))
  then begin
    print_endline "The round accused a fair A or let favouritism go.";
    exit 1
  end
