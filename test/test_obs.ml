(* Tests for pvr_obs: counter and histogram semantics, the zero-cost
   disabled path, snapshot capture/diff/JSON, and per-round tallies. *)

module O = Pvr_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The registry is global; every test starts from a known state and leaves
   metrics disabled so other suites are unaffected. *)
let fresh () =
  O.set_enabled true;
  O.reset_all ()

let teardown () = O.set_enabled false

let with_fresh f =
  fresh ();
  Fun.protect ~finally:teardown f

(* ---- counters ---------------------------------------------------------- *)

let counter_basics () =
  with_fresh @@ fun () ->
  let c = O.counter "t.counter.basics" in
  check_int "starts at zero" 0 (O.value c);
  O.incr c;
  O.incr c;
  O.add c 40;
  check_int "incr and add" 42 (O.value c);
  check_bool "same name, same counter" true (O.counter "t.counter.basics" == c)

let counter_disabled_is_noop () =
  with_fresh @@ fun () ->
  let c = O.counter "t.counter.disabled" in
  O.set_enabled false;
  O.incr c;
  O.add c 100;
  check_int "no-ops while disabled" 0 (O.value c);
  O.set_enabled true;
  O.incr c;
  check_int "counts again when re-enabled" 1 (O.value c)

let reset_between_rounds () =
  with_fresh @@ fun () ->
  let c = O.counter "t.counter.reset" in
  let h = O.histogram "t.histogram.reset" in
  O.add c 7;
  O.observe h 0.001;
  O.reset_all ();
  check_int "counter reset" 0 (O.value c);
  let snap = O.Snapshot.capture () in
  let stats = List.assoc "t.histogram.reset" (O.Snapshot.histograms snap) in
  check_int "histogram reset" 0 stats.O.hs_count;
  (* A second round after the reset starts from a clean slate. *)
  O.incr c;
  check_int "round two counts from zero" 1 (O.value c)

(* A fixed gauge is set while metrics are off and survives [reset_all];
   the SHA-256 kernel gauge is one, so every snapshot names the kernel. *)
let fixed_gauge_survives_reset () =
  O.set_enabled false;
  O.fixed_gauge "t.gauge.fixed" 5;
  with_fresh @@ fun () ->
  let plain = O.gauge "t.gauge.plain" in
  O.set_gauge plain 3;
  O.reset_all ();
  let snap = O.Snapshot.capture () in
  check_int "fixed gauge kept" 5 (O.Snapshot.gauge_value snap "t.gauge.fixed");
  check_int "plain gauge reset" 0 (O.Snapshot.gauge_value snap "t.gauge.plain");
  check_int "sha256 kernel gauge"
    (Bool.to_int Pvr_crypto.Sha256.accelerated)
    (O.Snapshot.gauge_value snap "crypto.sha256.accelerated")

(* ---- histograms -------------------------------------------------------- *)

let histogram_stats () =
  with_fresh @@ fun () ->
  let h = O.histogram "t.histogram.stats" in
  List.iter (O.observe h) [ 0.001; 0.002; 0.004 ];
  let snap = O.Snapshot.capture () in
  let s = List.assoc "t.histogram.stats" (O.Snapshot.histograms snap) in
  check_int "count" 3 s.O.hs_count;
  check_bool "sum" true (abs_float (s.O.hs_sum -. 0.007) < 1e-9);
  check_bool "min" true (abs_float (s.O.hs_min -. 0.001) < 1e-9);
  check_bool "max" true (abs_float (s.O.hs_max -. 0.004) < 1e-9);
  check_bool "buckets non-empty" true (s.O.hs_buckets <> [])

let histogram_quantiles () =
  with_fresh @@ fun () ->
  let h = O.histogram "t.histogram.quantiles" in
  (* 100 fast observations and one slow outlier. *)
  for _ = 1 to 100 do
    O.observe h 1e-6
  done;
  O.observe h 1e-3;
  let snap = O.Snapshot.capture () in
  let s = List.assoc "t.histogram.quantiles" (O.Snapshot.histograms snap) in
  let p50 = O.quantile s 0.5 and p95 = O.quantile s 0.95 in
  let p100 = O.quantile s 1.0 in
  check_bool "p50 in the fast bucket" true (p50 < 1e-4);
  check_bool "p95 in the fast bucket" true (p95 < 1e-4);
  check_bool "p100 covers the outlier" true (p100 >= 1e-3);
  check_bool "quantiles are monotone" true (p50 <= p95 && p95 <= p100)

(* A log2 bucket's upper edge can lie far past every observation: two
   samples of 30 ms and 42.8 ms both fall in the bucket whose edge is
   67.1 ms.  Every reported quantile must stay within the observed range. *)
let histogram_quantiles_within_range () =
  with_fresh @@ fun () ->
  let cases =
    [
      [ 0.030; 0.0428 ];
      [ 0.0428 ];
      [ 1e-9 ];
      [ 3e-6; 3e-6; 5e-6; 0.7 ];
      List.init 50 (fun i -> 1e-4 *. Float.of_int (i + 1));
    ]
  in
  List.iteri
    (fun i obs ->
      let name = Printf.sprintf "t.histogram.range.%d" i in
      List.iter (O.observe (O.histogram name)) obs;
      let s = List.assoc name (O.Snapshot.histograms (O.Snapshot.capture ())) in
      List.iter
        (fun q ->
          let v = O.quantile s q in
          if v < s.O.hs_min || v > s.O.hs_max then
            Alcotest.failf "case %d: q%.2f = %g outside [%g, %g]" i q v
              s.O.hs_min s.O.hs_max)
        [ 0.0; 0.1; 0.5; 0.95; 0.99; 1.0 ])
    cases

let histogram_empty_quantile () =
  with_fresh @@ fun () ->
  let h = O.histogram "t.histogram.empty" in
  ignore h;
  let snap = O.Snapshot.capture () in
  let s = List.assoc "t.histogram.empty" (O.Snapshot.histograms snap) in
  check_bool "empty quantile is zero" true (O.quantile s 0.5 = 0.0)

(* ---- spans ------------------------------------------------------------- *)

let span_records () =
  with_fresh @@ fun () ->
  let r = O.with_span "t.span.records" (fun () -> 6 * 7) in
  check_int "returns the body's value" 42 r;
  let snap = O.Snapshot.capture () in
  let s = List.assoc "t.span.records" (O.Snapshot.histograms snap) in
  check_int "one observation" 1 s.O.hs_count

let span_disabled_creates_nothing () =
  with_fresh @@ fun () ->
  O.set_enabled false;
  let r = O.with_span "t.span.disabled" (fun () -> "ok") in
  check_bool "body still runs" true (r = "ok");
  O.set_enabled true;
  let snap = O.Snapshot.capture () in
  check_bool "no histogram registered while disabled" true
    (List.assoc_opt "t.span.disabled" (O.Snapshot.histograms snap) = None)

let span_observes_on_exception () =
  with_fresh @@ fun () ->
  (try O.with_span "t.span.raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let snap = O.Snapshot.capture () in
  let s = List.assoc "t.span.raises" (O.Snapshot.histograms snap) in
  check_int "observed despite the exception" 1 s.O.hs_count

(* ---- snapshots --------------------------------------------------------- *)

let snapshot_diff () =
  with_fresh @@ fun () ->
  let c = O.counter "t.snapshot.diff" in
  O.add c 10;
  let before = O.Snapshot.capture () in
  O.add c 32;
  let after = O.Snapshot.capture () in
  let d = O.Snapshot.diff ~before ~after in
  check_int "delta, not absolute" 32 (O.Snapshot.counter_value d "t.snapshot.diff");
  check_int "unknown counter reads zero" 0
    (O.Snapshot.counter_value d "t.snapshot.no-such-counter")

let snapshot_json_shape () =
  with_fresh @@ fun () ->
  let c = O.counter "t.snapshot.json" in
  O.add c 5;
  let h = O.histogram "t.snapshot.json.span" in
  O.observe h 0.002;
  let json = O.Json.to_string (O.Snapshot.to_json (O.Snapshot.capture ())) in
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "counters object" true (contains "\"counters\":{");
  check_bool "histograms object" true (contains "\"histograms\":{");
  check_bool "counter value" true (contains "\"t.snapshot.json\":5");
  List.iter
    (fun field -> check_bool field true (contains ("\"" ^ field ^ "\":")))
    [ "count"; "sum_ms"; "min_ms"; "max_ms"; "p50_ms"; "p95_ms" ]

let json_writer () =
  let j =
    O.Json.(
      Obj
        [
          ("s", String "a\"b\\c\nd");
          ("i", Int (-3));
          ("f", Float 1.5);
          ("nan", Float Float.nan);
          ("l", List [ Bool true; Null ]);
        ])
  in
  Alcotest.(check string)
    "escaping and shapes"
    "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"f\":1.5,\"nan\":null,\"l\":[true,null]}"
    (O.Json.to_string j)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick counter_basics;
    Alcotest.test_case "counter disabled is no-op" `Quick counter_disabled_is_noop;
    Alcotest.test_case "reset between rounds" `Quick reset_between_rounds;
    Alcotest.test_case "histogram stats" `Quick histogram_stats;
    Alcotest.test_case "histogram quantiles" `Quick histogram_quantiles;
    Alcotest.test_case "quantiles within observed range" `Quick
      histogram_quantiles_within_range;
    Alcotest.test_case "empty histogram quantile" `Quick histogram_empty_quantile;
    Alcotest.test_case "span records" `Quick span_records;
    Alcotest.test_case "span disabled creates nothing" `Quick
      span_disabled_creates_nothing;
    Alcotest.test_case "span observes on exception" `Quick
      span_observes_on_exception;
    Alcotest.test_case "snapshot diff" `Quick snapshot_diff;
    Alcotest.test_case "snapshot json shape" `Quick snapshot_json_shape;
    Alcotest.test_case "json writer" `Quick json_writer;
    Alcotest.test_case "fixed gauge survives reset" `Quick
      fixed_gauge_survives_reset;
  ]
