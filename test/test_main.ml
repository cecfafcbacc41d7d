(* Single registry: every suite must be listed here, and [expected_tests]
   pins the total number of registered cases.  A suite dropped from this
   table (or a wired-out module) shrinks the count and fails the meta test,
   instead of silently not running in CI. *)

let suites =
  [
    ("crypto", Test_crypto.suite);
    ("crypto-kat", Test_crypto_kat.suite);
    ("merkle", Test_merkle.suite);
    ("bgp", Test_bgp.suite);
    ("rfg", Test_rfg.suite);
    ("pvr", Test_pvr.suite);
    ("smc", Test_smc.suite);
    ("obs", Test_obs.suite);
    ("net", Test_net.suite);
    ("engine", Test_engine.suite);
    ("store", Test_store.suite);
    ("query", Test_query.suite);
    ("scale", Test_scale.suite);
    ("adversary", Test_adversary.suite);
    ("mem", Test_mem.suite);
    ("concurrency", Test_concurrency.suite);
    ("serve", Test_serve.suite);
    ("codec", Test_codec.suite);
  ]

let expected_tests = 509

let () =
  let total = List.fold_left (fun n (_, s) -> n + List.length s) 0 suites in
  let meta =
    ( "meta",
      [
        ( Printf.sprintf "registry holds %d tests" expected_tests,
          `Quick,
          fun () ->
            Alcotest.(check int) "registered test count" expected_tests total
        );
      ] )
  in
  Alcotest.run "pvr" (suites @ [ meta ])
