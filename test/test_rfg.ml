(* Tests for pvr_rfg: operators, graph evaluation, promises (ground truth vs
   reference graphs), static checking, and the policy-language compiler. *)

module R = Pvr_rfg
module G = Pvr_bgp

let asn = G.Asn.of_int
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let prefix0 = G.Prefix.of_string "10.0.0.0/8"

let mk_route first len =
  let path =
    List.init len (fun j -> if j = 0 then asn first else asn (1000 + j))
  in
  let base = G.Route.originate ~asn:(asn first) prefix0 in
  { base with G.Route.as_path = path; next_hop = asn first }

(* ---- Operators -------------------------------------------------------------- *)

let op_exists () =
  check_bool "empty" true (R.Operator.apply R.Operator.Exists [ []; [] ] = []);
  check_int "one out" 1
    (List.length (R.Operator.apply R.Operator.Exists [ []; [ mk_route 10 2 ] ]))

let op_min_path_length () =
  let rs = [ mk_route 10 3; mk_route 11 1; mk_route 12 1; mk_route 13 5 ] in
  let out = R.Operator.apply R.Operator.Min_path_length [ rs ] in
  check_int "both minima" 2 (List.length out);
  check_bool "all length 1" true
    (List.for_all (fun r -> G.Route.path_length r = 1) out)

let op_within_hops_of_min () =
  let rs = [ mk_route 10 2; mk_route 11 3; mk_route 12 6 ] in
  let out = R.Operator.apply (R.Operator.Within_hops_of_min 1) [ rs ] in
  check_int "within 1 of min" 2 (List.length out)

let op_shorter_of () =
  let short = [ mk_route 10 1 ] and long = [ mk_route 11 4 ] in
  let pick inputs =
    match R.Operator.apply R.Operator.Shorter_of inputs with
    | [ r ] -> Some (G.Route.path_length r)
    | [] -> None
    | _ -> Alcotest.fail "expected at most one route"
  in
  check_bool "first wins when shorter" true (pick [ short; long ] = Some 1);
  check_bool "second wins otherwise" true (pick [ long; short ] = Some 1);
  check_bool "tie goes to second" true
    (pick [ [ mk_route 10 2 ] ; [ mk_route 11 2 ] ] = Some 2);
  check_bool "second empty" true (pick [ short; [] ] = Some 1);
  check_bool "both empty" true (pick [ []; [] ] = None)

let op_shorter_of_arity () =
  Alcotest.check_raises "unary rejected"
    (Invalid_argument "Operator.apply: wrong arity") (fun () ->
      ignore (R.Operator.apply R.Operator.Shorter_of [ [] ]))

let all_ops =
  [
    R.Operator.Exists;
    R.Operator.Min_path_length;
    R.Operator.Within_hops_of_min 3;
    R.Operator.Shorter_of;
  ]

let op_decode_roundtrip () =
  List.iter
    (fun op ->
      match R.Operator.decode (R.Operator.encode op) with
      | Some op' ->
          check_bool (R.Operator.name op) true
            (R.Operator.encode op' = R.Operator.encode op)
      | None -> Alcotest.failf "decode failed for %s" (R.Operator.name op))
    all_ops

let op_decode_garbage () =
  check_bool "empty" true (R.Operator.decode "" = None);
  check_bool "junk" true (R.Operator.decode "garbage" = None);
  check_bool "truncated" true
    (R.Operator.decode (String.sub (R.Operator.encode R.Operator.Exists) 0 3)
    = None)

let op_encode_injective () =
  let ops =
    [
      R.Operator.Exists;
      R.Operator.Min_path_length;
      R.Operator.Within_hops_of_min 1;
      R.Operator.Within_hops_of_min 2;
      R.Operator.Shorter_of;
    ]
  in
  let encs = List.map R.Operator.encode ops in
  check_int "all distinct" (List.length encs)
    (List.length (List.sort_uniq String.compare encs))

(* ---- Rfg --------------------------------------------------------------------- *)

let build_fig1 neighbors b =
  R.Promise.reference_rfg (R.Promise.Shortest_from neighbors) ~beneficiary:b
    ~neighbors

let rfg_eval_fig1 () =
  let ns = [ asn 10; asn 11; asn 12 ] in
  let g = build_fig1 ns (asn 100) in
  let inputs =
    [
      (R.Promise.input_var (asn 10), [ mk_route 10 3 ]);
      (R.Promise.input_var (asn 11), [ mk_route 11 1 ]);
    ]
  in
  let v = R.Rfg.eval g ~inputs in
  match R.Rfg.value v (R.Promise.output_var (asn 100)) with
  | [ r ] -> check_int "min selected" 1 (G.Route.path_length r)
  | _ -> Alcotest.fail "expected exactly one output route"

let rfg_unseeded_inputs_empty () =
  let ns = [ asn 10 ] in
  let g = build_fig1 ns (asn 100) in
  let v = R.Rfg.eval g ~inputs:[] in
  check_bool "no output" true
    (R.Rfg.value v (R.Promise.output_var (asn 100)) = [])

let rfg_rejects_duplicate_vertex () =
  let g = R.Rfg.add_var R.Rfg.empty "x" R.Rfg.Internal in
  Alcotest.check_raises "dup" (Invalid_argument "Rfg.add_var: duplicate id x")
    (fun () -> ignore (R.Rfg.add_var g "x" R.Rfg.Internal))

let rfg_rejects_double_producer () =
  let g = R.Rfg.add_var R.Rfg.empty "in" (R.Rfg.Input (asn 1)) in
  let g = R.Rfg.add_var g "out" R.Rfg.Internal in
  let g = R.Rfg.add_op g "op1" R.Operator.Exists ~inputs:[ "in" ] ~output:"out" in
  Alcotest.check_raises "double producer"
    (Invalid_argument "Rfg.add_op: variable out already has a producer")
    (fun () ->
      ignore (R.Rfg.add_op g "op2" R.Operator.Exists ~inputs:[ "in" ] ~output:"out"))

let rfg_rejects_unknown_input () =
  let g = R.Rfg.add_var R.Rfg.empty "out" R.Rfg.Internal in
  Alcotest.check_raises "unknown input"
    (Invalid_argument "Rfg.add_op: unknown input variable nope") (fun () ->
      ignore (R.Rfg.add_op g "op" R.Operator.Exists ~inputs:[ "nope" ] ~output:"out"))

let rfg_detects_cycle () =
  let g = R.Rfg.add_var R.Rfg.empty "a" R.Rfg.Internal in
  let g = R.Rfg.add_var g "b" R.Rfg.Internal in
  let g = R.Rfg.add_op g "op1" R.Operator.Exists ~inputs:[ "a" ] ~output:"b" in
  let g = R.Rfg.add_op g "op2" R.Operator.Exists ~inputs:[ "b" ] ~output:"a" in
  Alcotest.check_raises "cycle"
    (Failure "Rfg.topological_ops: cycle in route-flow graph") (fun () ->
      ignore (R.Rfg.topological_ops g))

let rfg_navigation () =
  let ns = [ asn 10; asn 11 ] in
  let g =
    R.Promise.reference_rfg
      (R.Promise.Prefer_unless_shorter { fallback = [ asn 11 ]; override = asn 10 })
      ~beneficiary:(asn 100) ~neighbors:ns
  in
  let out = R.Promise.output_var (asn 100) in
  check_bool "producer" true (R.Rfg.producer_of_var g out = Some "op:choose");
  check_bool "preds of out" true (R.Rfg.predecessors g out = [ "op:choose" ]);
  check_bool "op inputs ordered" true
    (R.Rfg.inputs_of_op g "op:choose"
    = [ R.Promise.input_var (asn 10); "v:fallback-min" ]);
  check_bool "consumer chain" true
    (R.Rfg.successors g (R.Promise.input_var (asn 11)) = [ "op:min" ]);
  check_int "two ops" 2 (List.length (R.Rfg.op_ids g));
  check_int "input vars" 2 (List.length (R.Rfg.input_vars g))

(* ---- Composite operators (§4 structural privacy) -------------------------------- *)

(* An inner graph computing min over two inputs. *)
let inner_min () =
  let g = R.Rfg.add_var R.Rfg.empty "a" (R.Rfg.Input (asn 901)) in
  let g = R.Rfg.add_var g "b" (R.Rfg.Input (asn 902)) in
  let g = R.Rfg.add_var g "out" (R.Rfg.Output (asn 903)) in
  R.Rfg.add_op g "inner-min" R.Operator.Min_path_length ~inputs:[ "a"; "b" ]
    ~output:"out"

let composite_graph () =
  let g = R.Rfg.add_var R.Rfg.empty "x" (R.Rfg.Input (asn 10)) in
  let g = R.Rfg.add_var g "y" (R.Rfg.Input (asn 11)) in
  let g = R.Rfg.add_var g "z" (R.Rfg.Output (asn 100)) in
  R.Rfg.add_composite g "comp" ~inner:(inner_min ()) ~inputs:[ "x"; "y" ]
    ~output:"z"

let composite_eval_matches_flat () =
  let g = composite_graph () in
  let inputs = [ ("x", [ mk_route 10 4 ]); ("y", [ mk_route 11 2 ]) ] in
  let v = R.Rfg.eval g ~inputs in
  match R.Rfg.value v "z" with
  | [ r ] -> check_int "inner min applied" 2 (G.Route.path_length r)
  | _ -> Alcotest.fail "expected one route"

let composite_introspection () =
  let g = composite_graph () in
  check_bool "composite_of" true (R.Rfg.composite_of g "comp" <> None);
  check_bool "operator_of is None" true (R.Rfg.operator_of g "comp" = None);
  check_bool "is_operator_vertex" true (R.Rfg.is_operator_vertex g "comp");
  check_bool "producer" true (R.Rfg.producer_of_var g "z" = Some "comp")

let composite_rejects_bad_inner () =
  let g = R.Rfg.add_var R.Rfg.empty "x" (R.Rfg.Input (asn 10)) in
  let g = R.Rfg.add_var g "z" R.Rfg.Internal in
  (* Inner graph expects two inputs; only one given. *)
  Alcotest.check_raises "arity"
    (Invalid_argument "Rfg.add_composite: inner input arity mismatch")
    (fun () ->
      ignore
        (R.Rfg.add_composite g "comp" ~inner:(inner_min ()) ~inputs:[ "x" ]
           ~output:"z"));
  (* Inner graph with no output. *)
  let no_output = R.Rfg.add_var R.Rfg.empty "a" (R.Rfg.Input (asn 901)) in
  Alcotest.check_raises "no inner output"
    (Invalid_argument "Rfg.add_composite: inner graph needs exactly one output")
    (fun () ->
      ignore
        (R.Rfg.add_composite g "comp" ~inner:no_output ~inputs:[ "x" ]
           ~output:"z"))

(* ---- Promises: reference graphs satisfy ground truth -------------------------- *)

(* Random scenario generator: up to 5 providers with random lengths, possibly
   absent. *)
let scenario_gen =
  QCheck2.Gen.(
    list_size (int_range 0 5) (pair (int_range 1 8) bool)
    |> map (fun specs ->
           List.filteri (fun _ (_, present) -> present) specs
           |> List.mapi (fun i (len, _) -> (10 + i, len))))

let promise_agrees promise ~neighbors scenario =
  let b = asn 100 in
  let rfg = R.Promise.reference_rfg promise ~beneficiary:b ~neighbors in
  let inputs = List.map (fun (n, len) -> (asn n, mk_route n len)) scenario in
  R.Promise.holds_on_rfg promise ~rfg ~beneficiary:b ~inputs

let promise_shortest_ref =
  qtest "reference graph satisfies Shortest_route" scenario_gen (fun sc ->
      let neighbors = List.map (fun (n, _) -> asn n) sc @ [ asn 50 ] in
      promise_agrees R.Promise.Shortest_route ~neighbors sc)

let promise_shortest_from_ref =
  qtest "reference graph satisfies Shortest_from" scenario_gen (fun sc ->
      let subset = List.filteri (fun i _ -> i mod 2 = 0) sc in
      let neighbors = List.map (fun (n, _) -> asn n) sc in
      let promise =
        R.Promise.Shortest_from (List.map (fun (n, _) -> asn n) subset)
      in
      (* Promise only constrains the subset's routes; evaluate with all. *)
      let b = asn 100 in
      let rfg = R.Promise.reference_rfg promise ~beneficiary:b ~neighbors in
      let inputs = List.map (fun (n, len) -> (asn n, mk_route n len)) sc in
      R.Promise.holds_on_rfg promise ~rfg ~beneficiary:b ~inputs)

let promise_within_hops_ref =
  qtest "reference graph satisfies Within_hops" scenario_gen (fun sc ->
      let neighbors = List.map (fun (n, _) -> asn n) sc @ [ asn 50 ] in
      promise_agrees (R.Promise.Within_hops 2) ~neighbors sc)

let promise_exists_ref =
  qtest "reference graph satisfies Export_if_any" scenario_gen (fun sc ->
      let neighbors = List.map (fun (n, _) -> asn n) sc @ [ asn 50 ] in
      promise_agrees
        (R.Promise.Export_if_any (List.map (fun (n, _) -> asn n) sc))
        ~neighbors sc)

let promise_prefer_ref =
  qtest "reference graph satisfies Prefer_unless_shorter" scenario_gen
    (fun sc ->
      match sc with
      | [] -> true
      | (first, _) :: rest ->
          let override = asn first in
          let fallback = List.map (fun (n, _) -> asn n) rest in
          if fallback = [] then true
          else begin
            let neighbors = override :: fallback in
            promise_agrees
              (R.Promise.Prefer_unless_shorter { fallback; override })
              ~neighbors sc
          end)

let promise_violation_detected_by_oracle () =
  (* permitted() must reject a non-minimal export. *)
  let inputs = [ (asn 10, mk_route 10 1); (asn 11, mk_route 11 4) ] in
  check_bool "long export rejected" false
    (R.Promise.permitted R.Promise.Shortest_route ~inputs
       ~exported:(Some (mk_route 11 4)) ());
  check_bool "short export accepted" true
    (R.Promise.permitted R.Promise.Shortest_route ~inputs
       ~exported:(Some (mk_route 10 1)) ());
  check_bool "silent withholding rejected" false
    (R.Promise.permitted R.Promise.Shortest_route ~inputs ~exported:None ())

let promise_no_longer_than_others () =
  let r1 = mk_route 10 2 and r2 = mk_route 11 3 in
  check_bool "shorter ok" true
    (R.Promise.permitted R.Promise.No_longer_than_others ~inputs:[]
       ~other_exports:[ r2 ] ~exported:(Some r1) ());
  check_bool "longer bad" false
    (R.Promise.permitted R.Promise.No_longer_than_others ~inputs:[]
       ~other_exports:[ r1 ] ~exported:(Some r2) ())

(* ---- Static check --------------------------------------------------------------- *)

let static_check_accepts_reference () =
  let ns = [ asn 10; asn 11; asn 12 ] in
  List.iter
    (fun promise ->
      let g = R.Promise.reference_rfg promise ~beneficiary:(asn 100) ~neighbors:ns in
      check_int
        (R.Promise.describe promise)
        0
        (List.length
           (R.Static_check.implements g ~promise ~beneficiary:(asn 100)
              ~neighbors:ns)))
    [
      R.Promise.Shortest_route;
      R.Promise.Shortest_from [ asn 10; asn 11 ];
      R.Promise.Within_hops 2;
      R.Promise.Export_if_any [ asn 11; asn 12 ];
      R.Promise.Prefer_unless_shorter { fallback = [ asn 11; asn 12 ]; override = asn 10 };
    ]

let static_check_rejects_wrong_operator () =
  let ns = [ asn 10; asn 11 ] in
  (* Build an "exists" graph but claim shortest. *)
  let g =
    R.Promise.reference_rfg (R.Promise.Export_if_any ns) ~beneficiary:(asn 100)
      ~neighbors:ns
  in
  let issues =
    R.Static_check.implements g ~promise:R.Promise.Shortest_route
      ~beneficiary:(asn 100) ~neighbors:ns
  in
  check_bool "issues found" true (issues <> [])

let static_check_rejects_wrong_subset () =
  let ns = [ asn 10; asn 11; asn 12 ] in
  let g =
    R.Promise.reference_rfg
      (R.Promise.Shortest_from [ asn 10 ])
      ~beneficiary:(asn 100) ~neighbors:ns
  in
  let issues =
    R.Static_check.implements g
      ~promise:(R.Promise.Shortest_from [ asn 10; asn 11 ])
      ~beneficiary:(asn 100) ~neighbors:ns
  in
  check_bool "wiring issue" true
    (List.exists
       (function R.Static_check.Wrong_wiring _ -> true | _ -> false)
       issues)

let static_check_missing_output () =
  let issues =
    R.Static_check.implements R.Rfg.empty ~promise:R.Promise.Shortest_route
      ~beneficiary:(asn 100) ~neighbors:[ asn 10 ]
  in
  check_bool "no output" true
    (List.exists
       (function R.Static_check.No_output _ -> true | _ -> false)
       issues)

let static_check_visibility () =
  let ns = [ asn 10; asn 11 ] in
  let promise = R.Promise.Shortest_from ns in
  let g = R.Promise.reference_rfg promise ~beneficiary:(asn 100) ~neighbors:ns in
  (* Fully visible: fine. *)
  check_int "all visible" 0
    (List.length
       (R.Static_check.verifiable_under g ~promise ~beneficiary:(asn 100)
          ~neighbors:ns
          ~visible:(fun ~viewer:_ _ -> true)));
  (* Operator hidden: not verifiable. *)
  let issues =
    R.Static_check.verifiable_under g ~promise ~beneficiary:(asn 100)
      ~neighbors:ns
      ~visible:(fun ~viewer:_ v -> v <> "op:min")
  in
  check_bool "hidden operator flagged" true
    (List.exists
       (function R.Static_check.Invisible_vertex "op:min" -> true | _ -> false)
       issues)

(* ---- Compiler --------------------------------------------------------------------- *)

let sample_config = {|
# partial-transit example
policy for AS1 {
  promise to AS100 = shortest-from AS10 AS11;
  promise to AS200 = prefer AS11 unless-shorter AS10;
  promise to AS300 = export-if-any AS10 AS11;
  promise to AS400 = within-hops 3;
  promise to AS500 = shortest;
  promise to AS600 = no-longer-than-others;
  neighbors AS10 AS11;
}
|}

let compiler_parses_sample () =
  match R.Compiler.parse sample_config with
  | Error e -> Alcotest.failf "parse error: %s" (Format.asprintf "%a" R.Compiler.pp_error e)
  | Ok config ->
      check_int "promises" 6 (List.length config.R.Compiler.promises);
      check_bool "neighbors" true
        (config.R.Compiler.neighbors = [ asn 10; asn 11 ]);
      check_bool "owner" true (G.Asn.equal config.R.Compiler.owner (asn 1))

let compiler_render_roundtrip () =
  match R.Compiler.parse sample_config with
  | Error _ -> Alcotest.fail "sample must parse"
  | Ok config -> begin
      let rendered = R.Compiler.render config in
      match R.Compiler.parse rendered with
      | Error e ->
          Alcotest.failf "rendered config does not re-parse: %s"
            (Format.asprintf "%a" R.Compiler.pp_error e)
      | Ok config2 ->
          check_bool "fixed point" true (R.Compiler.render config2 = rendered)
    end

let compiler_compile_static_ok () =
  match R.Compiler.parse sample_config with
  | Error _ -> Alcotest.fail "sample must parse"
  | Ok config ->
      let neighbors = config.R.Compiler.neighbors in
      List.iter
        (fun (b, p, g) ->
          check_int
            ("compiled " ^ R.Promise.describe p)
            0
            (List.length
               (R.Static_check.implements g ~promise:p ~beneficiary:b
                  ~neighbors)))
        (R.Compiler.compile config)

let compiler_error_reporting () =
  let cases =
    [
      ("", "end of input");
      ("policy for X1 {}", "AS number");
      ("policy for AS1 { promise to AS2 = bogus; }", "unknown promise");
      ("policy for AS1 { neighbors; }", "AS number");
      ("policy for AS1 { neighbors AS2 AS3 }", "\";\"");
      ("policy for AS1 { neighbors AS2; neighbors AS3; }", "second");
      ("policy for AS1 { neighbors AS2 AS3 AS2; }", "twice");
      ("policy for AS1 {} trailing", "trailing");
    ]
  in
  List.iter
    (fun (src, hint) ->
      match R.Compiler.parse src with
      | Ok _ -> Alcotest.failf "expected %S to fail" src
      | Error e ->
          let message = e.R.Compiler.message in
          check_bool
            (Printf.sprintf "%S: %S names %S" src message hint)
            true
            (Test_serve.contains message hint))
    cases

let compiler_line_numbers () =
  let line_of src =
    match R.Compiler.parse src with
    | Error e -> e.R.Compiler.line
    | Ok _ -> Alcotest.failf "expected %S to fail" src
  in
  check_int "line 2" 2 (line_of "policy for AS1 {\n  promise to AS2 = bogus;\n}");
  (* Route-maps are not part of the language. *)
  check_int "import block" 3
    (line_of
       "policy for AS1 {\n  neighbors AS10;\n  import from AS10 { accept; }\n}")

let compiler_comments_ignored () =
  let src = "# hello\npolicy for AS1 { # mid\n promise to AS2 = shortest; # end\n}" in
  match R.Compiler.parse src with
  | Ok c -> check_int "one promise" 1 (List.length c.R.Compiler.promises)
  | Error e -> Alcotest.failf "parse error: %s" (Format.asprintf "%a" R.Compiler.pp_error e)

let suite =
  [
    ("operator exists", `Quick, op_exists);
    ("operator min path length", `Quick, op_min_path_length);
    ("operator within-hops-of-min", `Quick, op_within_hops_of_min);
    ("operator shorter-of", `Quick, op_shorter_of);
    ("operator shorter-of arity", `Quick, op_shorter_of_arity);
    ("operator encodings injective", `Quick, op_encode_injective);
    ("operator decode roundtrip", `Quick, op_decode_roundtrip);
    ("operator decode garbage", `Quick, op_decode_garbage);
    ("rfg eval figure 1", `Quick, rfg_eval_fig1);
    ("rfg unseeded inputs empty", `Quick, rfg_unseeded_inputs_empty);
    ("rfg rejects duplicate vertex", `Quick, rfg_rejects_duplicate_vertex);
    ("rfg rejects double producer", `Quick, rfg_rejects_double_producer);
    ("rfg rejects unknown input", `Quick, rfg_rejects_unknown_input);
    ("rfg detects cycle", `Quick, rfg_detects_cycle);
    ("rfg navigation", `Quick, rfg_navigation);
    ("composite eval matches flat", `Quick, composite_eval_matches_flat);
    ("composite introspection", `Quick, composite_introspection);
    ("composite rejects bad inner", `Quick, composite_rejects_bad_inner);
    promise_shortest_ref;
    promise_shortest_from_ref;
    promise_within_hops_ref;
    promise_exists_ref;
    promise_prefer_ref;
    ("promise oracle rejects violations", `Quick, promise_violation_detected_by_oracle);
    ("promise no-longer-than-others", `Quick, promise_no_longer_than_others);
    ("static check accepts references", `Quick, static_check_accepts_reference);
    ("static check rejects wrong operator", `Quick, static_check_rejects_wrong_operator);
    ("static check rejects wrong subset", `Quick, static_check_rejects_wrong_subset);
    ("static check missing output", `Quick, static_check_missing_output);
    ("static check visibility (§4 minimum access)", `Quick, static_check_visibility);
    ("compiler parses sample", `Quick, compiler_parses_sample);
    ("compiler render roundtrip", `Quick, compiler_render_roundtrip);
    ("compiler compile + static check", `Quick, compiler_compile_static_ok);
    ("compiler error reporting", `Quick, compiler_error_reporting);
    ("compiler line numbers", `Quick, compiler_line_numbers);
    ("compiler comments ignored", `Quick, compiler_comments_ignored);
  ]
