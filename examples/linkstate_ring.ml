(* The §3.2 link-state remark: "Suppose we apply PVR to a link-state
   protocol that only exports whether a path exists.  Then the N_i can use a
   ring signature scheme ... to sign the statement 'A route exists'.  Thus,
   B could tell that some N_i had provided a route, but it could not tell
   which one."

     dune exec examples/linkstate_ring.exe *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto

let asn = G.Asn.of_int

let () =
  let rng = C.Drbg.of_int_seed 123 in
  let providers = List.init 5 (fun i -> asn (10 + i)) in
  let keyring = P.Keyring.create ~bits:1024 rng providers in
  let prefix = G.Prefix.of_string "10.10.0.0/16" in

  Printf.printf "Ring: {%s}\n"
    (String.concat ", " (List.map G.Asn.to_string providers));

  (* One (secret) member of the ring actually has a route and signs the
     existence statement anonymously. *)
  let secret_signer = List.nth providers 3 in
  let signature =
    P.Proto_common.ring_announce rng keyring ~ring:providers
      ~signer:secret_signer ~epoch:1 ~prefix
  in
  Printf.printf "Statement: %S\n"
    (P.Proto_common.ring_statement ~epoch:1 ~prefix);
  Printf.printf "Signature size: %d bytes (ring of %d)\n"
    (String.length (C.Ring_signature.encode signature))
    (C.Ring_signature.ring_size signature);

  (* B can check that SOME ring member signed... *)
  Printf.printf "B verifies 'some N_i has a route': %b\n"
    (P.Proto_common.ring_check keyring ~ring:providers ~epoch:1 ~prefix
       signature);

  (* ...but the signature is symmetric in the ring members: there is no
     verification keyed to an individual signer, and the transcript is
     identical in distribution whoever signed.  We illustrate by showing the
     same check passes regardless of which member we *guess* signed (there
     is simply no per-member check to run), and that tampering breaks it. *)
  Printf.printf "B verifies under wrong epoch (must fail): %b\n"
    (P.Proto_common.ring_check keyring ~ring:providers ~epoch:9 ~prefix
       signature);

  (* Every ring member could have produced an indistinguishable signature. *)
  print_endline "Signatures by each possible member (all verify equally):";
  List.iter
    (fun signer ->
      let s =
        P.Proto_common.ring_announce rng keyring ~ring:providers ~signer
          ~epoch:1 ~prefix
      in
      Printf.printf "  signer %s -> verifies %b\n" (G.Asn.to_string signer)
        (P.Proto_common.ring_check keyring ~ring:providers ~epoch:1 ~prefix s))
    providers;
  print_endline "B learns that a route exists, and nothing about whose it is."
