(* Tests for pvr_query — the indexed audit-query subsystem over the
   evidence plane: parser units (positions included) and a qcheck
   canonical-form round-trip, Store.fold_frames streaming semantics, the
   commit protocol (orphan rows frames excluded, duplicates deduped), a
   qcheck differential between planned execution and a brute-force scan,
   α viewer scoping (viewers never see unauthorized rows; court sees
   everything), crash/recover query byte-equality, and the query.* obs
   counters. *)

module P = Pvr
module E = Pvr_engine.Engine
module Persist = Pvr_engine.Persist
module G = Pvr_bgp
module C = Pvr_crypto
module S = Pvr_store.Store
module Q = Pvr_query
module Lang = Pvr_query.Lang
module Exec = Pvr_query.Exec
module Row = Pvr_query.Row
module Frame = Pvr_query.Frame
module Idx = Pvr_query.Evidence_index
module Obs = Pvr_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let counted = Test_engine.counted
let delta = Test_engine.delta

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pvr-test-query-%d-%d" (Unix.getpid ()) !n)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> S.remove ~dir) (fun () -> f dir)

(* ---- parser ---------------------------------------------------------------------- *)

let parse_ok q =
  match Lang.parse q with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse %S: %s" q (Lang.render_error ~query:q e)

let parser_roadmap_example () =
  (* The ROADMAP's motivating query, verbatim. *)
  let q =
    parse_ok
      "violations where prefix in 10.0.0.0/8 and epoch > 40 order by epoch \
       limit 20"
  in
  check_bool "source" true (q.Lang.q_source = Lang.Violations);
  check_bool "order" true (q.Lang.q_order = Some (Lang.By_epoch, true));
  check_bool "limit" true (q.Lang.q_limit = Some 20);
  (match q.Lang.q_where with
  | Lang.And (Lang.Prefix_in p, Lang.Int_cmp (Lang.F_epoch, Lang.Gt, 40)) ->
      check_string "prefix" "10.0.0.0/8" (G.Prefix.to_string p)
  | _ -> Alcotest.fail "unexpected AST shape");
  check_string "canonical"
    "violations where (prefix in 10.0.0.0/8 and epoch > 40) order by epoch \
     asc limit 20"
    (Lang.to_string q)

let parser_atoms () =
  List.iter
    (fun (text, expect) ->
      check_bool text true ((parse_ok ("rows where " ^ text)).Lang.q_where = expect))
    [
      ("prover = AS17", Lang.Asn_cmp (Lang.F_prover, true, 17));
      ("prover != 17", Lang.Asn_cmp (Lang.F_prover, false, 17));
      ("beneficiary = 3", Lang.Asn_cmp (Lang.F_beneficiary, true, 3));
      ("detected", Lang.Bool_is (Lang.F_detected, true));
      ("convicted != true", Lang.Bool_is (Lang.F_convicted, false));
      ("leaked_bits >= 5", Lang.Int_cmp (Lang.F_leaked, Lang.Ge, 5));
      ("kind = missing-export", Lang.Kind_has (true, "missing-export"));
      ("behaviour != honest", Lang.Behaviour_is (false, "honest"));
      ( "not (epoch = 1 or epoch = 2)",
        Lang.Not
          (Lang.Or
             ( Lang.Int_cmp (Lang.F_epoch, Lang.Eq, 1),
               Lang.Int_cmp (Lang.F_epoch, Lang.Eq, 2) )) );
    ]

let parser_error_positions () =
  List.iter
    (fun (text, pos, needle) ->
      match Lang.parse text with
      | Ok _ -> Alcotest.failf "expected %S to fail" text
      | Error e ->
          check_int (text ^ ": position") pos e.Lang.pos;
          check_bool
            (Printf.sprintf "%s: message %S in %S" text needle e.Lang.msg)
            true
            (let n = String.length needle and m = String.length e.Lang.msg in
             let rec at i =
               i + n <= m && (String.sub e.Lang.msg i n = needle || at (i + 1))
             in
             at 0))
    [
      ("violations where banana = 1", 17, "unknown field");
      ("rows where epoch >", 18, "expected an integer");
      ("rows where prefix in 10.0.0.300/8", 21, "malformed prefix");
      ("rows where behaviour = flying", 23, "unknown behaviour");
      ("rows where kind = sabotage", 18, "unknown kind");
      ("rows where epoch ! 3", 17, "expected '='");
      ("rows where (epoch = 1", 21, "expected ')'");
      ("rows order by verdict", 14, "cannot order by");
      ("rows limit 3 extra", 13, "trailing input");
      ("sandwiches", 0, "expected violations");
    ]

(* Random well-formed ASTs; to_string then parse must reconstruct them. *)
let gen_query =
  let open QCheck2.Gen in
  let gen_prefix =
    oneofl [ "10.0.0.0/8"; "10.2.0.0/15"; "10.1.0.0/24"; "0.0.0.0/0" ]
    >|= G.Prefix.of_string
  in
  let gen_atom =
    oneof
      [
        (let* f = oneofl [ Lang.F_epoch; Lang.F_evidence; Lang.F_leaked; Lang.F_excess ] in
         let* c = oneofl [ Lang.Lt; Lang.Le; Lang.Gt; Lang.Ge; Lang.Eq; Lang.Ne ] in
         let* v = int_bound 100 in
         return (Lang.Int_cmp (f, c, v)));
        (let* f = oneofl [ Lang.F_prover; Lang.F_beneficiary ] in
         let* eq = bool in
         let* v = int_bound 30 in
         return (Lang.Asn_cmp (f, eq, v)));
        (gen_prefix >|= fun p -> Lang.Prefix_in p);
        (gen_prefix >|= fun p -> Lang.Prefix_eq p);
        (let* eq = bool in
         let* b = oneofl (List.map P.Adversary.to_string P.Adversary.all) in
         return (Lang.Behaviour_is (eq, b)));
        (let* eq = bool in
         let* k = oneofl P.Evidence.all_kinds in
         return (Lang.Kind_has (eq, k)));
        (let* f = oneofl [ Lang.F_detected; Lang.F_convicted ] in
         let* v = bool in
         return (Lang.Bool_is (f, v)));
      ]
  in
  let gen_expr =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then gen_atom
            else
              oneof
                [
                  gen_atom;
                  (let* a = self (n / 2) in
                   let* b = self (n / 2) in
                   return (Lang.And (a, b)));
                  (let* a = self (n / 2) in
                   let* b = self (n / 2) in
                   return (Lang.Or (a, b)));
                  (self (n - 1) >|= fun e -> Lang.Not e);
                ])
          (min n 8))
  in
  let* q_source = oneofl [ Lang.Violations; Lang.Convictions; Lang.Rows ] in
  let* q_where = oneof [ return Lang.True; gen_expr ] in
  let* q_order =
    oneof
      [
        return None;
        (let* k =
           oneofl
             [ Lang.By_epoch; Lang.By_prover; Lang.By_beneficiary;
               Lang.By_prefix; Lang.By_evidence; Lang.By_leaked; Lang.By_excess ]
         in
         let* asc = bool in
         return (Some (k, asc)));
      ]
  in
  let* q_limit = oneof [ return None; int_bound 40 >|= Option.some ] in
  return { Lang.q_source; q_where; q_order; q_limit }

let parser_roundtrip =
  qtest ~count:200 "lang: parse (to_string q) = q" gen_query (fun q ->
      match Lang.parse (Lang.to_string q) with
      | Ok q' -> q' = q
      | Error e ->
          QCheck2.Test.fail_reportf "reparse failed: %s"
            (Lang.render_error ~query:(Lang.to_string q) e))

(* ---- row codec ------------------------------------------------------------------- *)

let gen_row =
  let open QCheck2.Gen in
  let* r_epoch = int_bound 100 in
  let* r_prover = int_bound 1000 in
  let* r_addr = int_bound 0xFFFF >|= fun a -> a * 0x10000 in
  let* r_len = int_range 0 32 in
  let* r_beneficiary = int_bound 1000 in
  let* r_providers = list_size (int_bound 4) (int_bound 1000) in
  let* r_behaviour = oneofl (List.map P.Adversary.to_string P.Adversary.all) in
  let* r_detected = bool in
  let* r_convicted = bool in
  let* r_evidence = int_bound 5 in
  let* r_kinds = list_size (int_bound 3) (oneofl P.Evidence.all_kinds) in
  let* r_leaked = int_bound 500 in
  let* r_excess = int_bound 500 in
  return
    {
      Row.r_epoch;
      r_prover;
      r_addr;
      r_len;
      r_beneficiary;
      r_providers;
      r_behaviour;
      r_detected;
      r_convicted;
      r_evidence;
      r_kinds;
      r_leaked;
      r_excess;
    }

let row_codec_roundtrip =
  qtest ~count:200 "row: encode/read round-trips" gen_row (fun r ->
      let buf = Buffer.create 64 in
      Row.encode buf r;
      match
        Pvr_crypto.Codec.decode (Buffer.contents buf) (fun rd -> Row.read rd)
      with
      | Ok r' -> r' = r
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %s" e)

let rows_frame_roundtrip =
  qtest ~count:50 "frame: rows frame round-trips and peeks"
    QCheck2.Gen.(pair (list_size (int_bound 6) gen_row) (int_bound 50))
    (fun (rows, epoch) ->
      let f = { Frame.rf_run_id = "run-x"; rf_epoch = epoch; rf_rows = rows } in
      let payload = Frame.encode_rows f in
      Frame.tag payload = Some Frame.tag_rows
      && match Frame.decode payload with
         | Ok (Frame.Rows f') -> f' = f
         | _ -> false)

(* ---- fold_frames ----------------------------------------------------------------- *)

let fold_frames_streams () =
  with_dir (fun dir ->
      let payloads = List.init 6 (fun i -> Printf.sprintf "frame-%d" i) in
      let s = S.open_ ~fsync:false ~dir () in
      List.iter (S.append s) payloads;
      S.close s;
      let collected, fe =
        S.fold_frames ~dir ~init:[] ~f:(fun acc ~off p -> (off, p) :: acc) ()
      in
      let collected = List.rev collected in
      check_bool "payloads in order" true
        (List.map snd collected = payloads);
      check_int "frame count" 6 fe.S.fe_frames;
      check_bool "no error" true (fe.S.fe_error = None);
      check_bool "offsets strictly ascending" true
        (let offs = List.map fst collected in
         List.sort_uniq compare offs = offs);
      (* Resuming from the 4th frame's offset yields exactly the tail. *)
      let from = List.nth (List.map fst collected) 3 in
      let tail, fe2 =
        S.fold_frames ~from ~dir ~init:[] ~f:(fun acc ~off:_ p -> p :: acc) ()
      in
      check_bool "tail from offset" true
        (List.rev tail = [ "frame-3"; "frame-4"; "frame-5" ]);
      check_int "tail frames" 3 fe2.S.fe_frames;
      check_int "next offset = file size"
        (Unix.stat (S.journal_path ~dir)).Unix.st_size fe2.S.fe_next)

let fold_frames_torn_tail () =
  with_dir (fun dir ->
      let s = S.open_ ~fsync:false ~dir () in
      S.append s "alpha";
      S.append s "beta";
      S.close s;
      let journal = S.journal_path ~dir in
      let size = (Unix.stat journal).Unix.st_size in
      Unix.truncate journal (size - 3);
      let seen, fe =
        S.fold_frames ~dir ~init:[] ~f:(fun acc ~off:_ p -> p :: acc) ()
      in
      check_bool "good prefix kept" true (List.rev seen = [ "alpha" ]);
      check_bool "error reported" true (fe.S.fe_error <> None);
      check_bool "stops at torn frame start" true (fe.S.fe_next < size - 3);
      (* fold never mutates: recover still sees the same journal bytes. *)
      check_int "journal untouched" (size - 3)
        (Unix.stat journal).Unix.st_size;
      let missing, fe3 =
        S.fold_frames ~dir:(dir ^ "-nonexistent") ~init:[]
          ~f:(fun acc ~off:_ p -> p :: acc)
          ()
      in
      check_bool "missing dir is clean empty" true
        (missing = [] && fe3.S.fe_frames = 0 && fe3.S.fe_error = None))

(* ---- engine-backed fixture -------------------------------------------------------- *)

(* One checkpointed engine run shared by the query tests (keygen and the
   run dominate; the store is tiny).  Timing-probe planning: violations
   are detected but never convicted, so rows of every verdict exist. *)
let fixture_seed = 64
let fixture_epochs = 5

let mk_world ?(strategy = P.Adversary.Timing_probe { period = 3 }) ~jobs
    ~cache seed =
  let topo = Lazy.force Test_engine.etopo in
  let sim = G.Simulator.create topo in
  let origins =
    List.sort (fun a b -> G.Asn.compare b a) (G.Topology.ases topo)
    |> List.filteri (fun i _ -> i < 2)
    |> List.rev
  in
  let churn =
    G.Update_gen.Churn.create ~anycast:2 ~origins ~prefixes_per_origin:2 ()
  in
  let churn_rng = C.Drbg.of_int_seed seed in
  let eng =
    E.create ~jobs ~cache ~salt_every:3 ~max_path_len:8 ~strategy
      (C.Drbg.of_int_seed (seed + 1))
      (Lazy.force Test_engine.ekeyring) ~topology:topo ~sim ()
  in
  let apply ~epoch sim =
    if epoch = 1 then List.length (G.Update_gen.Churn.seed churn sim)
    else List.length (G.Update_gen.Churn.step churn_rng ~turnover:0.3 churn sim)
  in
  (eng, apply)

let run_epochs ~session eng apply ~from ~until =
  for i = from + 1 to until do
    let r = E.epoch ~apply:(apply ~epoch:i) eng in
    Option.iter (fun s -> Persist.record s eng r) session
  done

(* (dir, index): a completed 5-epoch timing-probe run, shared by every
   test below, so the dir is removed only when the test binary exits. *)
let fixture =
  lazy
    (let dir = fresh_dir () in
     at_exit (fun () -> S.remove ~dir);
     let eng, apply = mk_world ~jobs:1 ~cache:true fixture_seed in
     let s = Persist.start ~fsync:false ~dir () in
     run_epochs ~session:(Some s) eng apply ~from:0 ~until:fixture_epochs;
     Persist.close s;
     match Idx.build ~quiet:true ~dir () with
     | Ok idx -> (dir, idx)
     | Error e -> Alcotest.failf "fixture index build failed: %s" e)

let all_rows idx = List.map (Idx.row idx) (Idx.ids_all idx)

(* Brute-force reference: decode every committed rows frame straight off
   the journal, no index, no planner. *)
let journal_rows dir =
  let frames, _ =
    S.fold_frames ~dir ~init:[] ~f:(fun acc ~off:_ p -> p :: acc) ()
  in
  let decoded =
    List.rev_map (fun p -> Result.to_option (Frame.decode p)) frames
    |> List.filter_map Fun.id
  in
  let run =
    List.fold_left
      (fun acc -> function
        | Frame.Epoch er -> er.Frame.er_run_id
        | _ -> acc)
      "" decoded
  in
  let committed =
    List.filter_map
      (function
        | Frame.Epoch er when er.Frame.er_run_id = run ->
            Some er.Frame.er_epoch
        | _ -> None)
      decoded
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (function
      | Frame.Rows rf
        when rf.Frame.rf_run_id = run
             && List.mem rf.Frame.rf_epoch committed
             && not (Hashtbl.mem seen rf.Frame.rf_epoch) ->
          Hashtbl.replace seen rf.Frame.rf_epoch rf.Frame.rf_rows
      | _ -> ())
    decoded;
  Hashtbl.fold (fun e rows acc -> (e, rows) :: acc) seen []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map snd

let index_matches_journal_scan () =
  let dir, idx = Lazy.force fixture in
  let from_idx = all_rows idx in
  let from_journal = journal_rows dir in
  check_int "row counts" (List.length from_journal) (List.length from_idx);
  check_bool "rows byte-identical in journal order" true
    (List.for_all2 (fun a b -> a = b) from_journal from_idx);
  check_bool "some rows detected" true
    (List.exists (fun r -> r.Row.r_detected) from_idx);
  check_bool "detected rows carry evidence kinds" true
    (List.for_all
       (fun r -> (not r.Row.r_detected) || r.Row.r_kinds <> [])
       from_idx)

(* Mirror of Exec.run for the court viewer, minus planner and index. *)
let brute idx q =
  let matched = List.filter (Lang.admits q) (all_rows idx) in
  let ordered =
    match q.Lang.q_order with
    | None -> matched
    | Some (k, asc) ->
        List.stable_sort
          (fun a b ->
            let c = Exec.key_compare k a b in
            if asc then c else -c)
          matched
  in
  match q.Lang.q_limit with
  | None -> ordered
  | Some n -> List.filteri (fun i _ -> i < n) ordered

let planner_differential =
  qtest ~count:150 "exec: planned run = brute-force scan (court)" gen_query
    (fun q ->
      let _, idx = Lazy.force fixture in
      let res = Exec.run idx ~viewer:P.Leakage.court q in
      res.Exec.qr_rows = brute idx q && res.Exec.qr_refused = 0)

let planner_chooses_indexes () =
  let _, idx = Lazy.force fixture in
  let plan_of text = (Exec.plan idx (parse_ok text)).Exec.pl_access in
  let some_prover =
    match all_rows idx with
    | r :: _ -> r.Row.r_prover
    | [] -> Alcotest.fail "fixture has no rows"
  in
  (match plan_of (Printf.sprintf "rows where prover = %d" some_prover) with
  | Exec.Prover_idx p -> check_int "prover path" some_prover p
  | a -> Alcotest.failf "expected prover index, got %s" (Exec.access_to_string a));
  (match plan_of "rows where prefix in 10.2.0.0/15 and detected" with
  | Exec.Prefix_idx { exact = false; _ } -> ()
  | a -> Alcotest.failf "expected prefix index, got %s" (Exec.access_to_string a));
  (match plan_of "rows where epoch >= 4 and epoch <= 4" with
  | Exec.Epoch_idx { lo = 4; hi = 4 } -> ()
  | a -> Alcotest.failf "expected epoch index, got %s" (Exec.access_to_string a));
  (match plan_of "rows where leaked > 0" with
  | Exec.Scan -> ()
  | a -> Alcotest.failf "expected scan, got %s" (Exec.access_to_string a));
  (* The chosen path is always the cheapest considered one. *)
  let p = Exec.plan idx (parse_ok "rows where prover = 1 and epoch = 2") in
  check_bool "min cost wins" true
    (List.for_all (fun (_, c) -> p.Exec.pl_cost <= c) p.Exec.pl_considered)

let query_counters () =
  let _, idx = Lazy.force fixture in
  let indexed = parse_ok "violations where epoch > 2" in
  let scan = parse_ok "rows where leaked >= 0" in
  let (r1, r2), d =
    counted (fun () ->
        ( Exec.run idx ~viewer:P.Leakage.court indexed,
          Exec.run idx ~viewer:P.Leakage.court scan ))
  in
  check_int "query.plans" 2 (delta d "query.plans");
  check_int "query.rows"
    (List.length r1.Exec.qr_rows + List.length r2.Exec.qr_rows)
    (delta d "query.rows");
  check_bool "index hits counted for the indexed query" true
    (delta d "query.index.hits" > 0);
  check_bool "scan fetches nothing through indexes" true
    (r2.Exec.qr_plan.Exec.pl_access = Exec.Scan)

(* ---- α scoping -------------------------------------------------------------------- *)

let alpha_viewer_scoping () =
  let _, idx = Lazy.force fixture in
  let q = parse_ok "rows" in
  let court = Exec.run idx ~viewer:P.Leakage.court q in
  check_int "court sees everything" (Idx.row_count idx)
    (List.length court.Exec.qr_rows);
  check_int "court is never refused" 0 court.Exec.qr_refused;
  (* A provider/beneficiary viewer: strictly fewer rows, every one of
     them individually α-authorized, and the arithmetic adds up. *)
  let viewer = G.Asn.of_int 2 in
  let ledger = P.Leakage.Ledger.create () in
  let mine = Exec.run ~ledger idx ~viewer q in
  check_bool "viewer sees strictly fewer rows than court" true
    (List.length mine.Exec.qr_rows < List.length court.Exec.qr_rows);
  check_bool "viewer sees some rows" true (mine.Exec.qr_rows <> []);
  check_bool "every returned row is authorized" true
    (List.for_all (Exec.authorized_for_row ~viewer) mine.Exec.qr_rows);
  check_int "returned + refused = total" (Idx.row_count idx)
    (List.length mine.Exec.qr_rows + mine.Exec.qr_refused);
  check_int "refusals accounted in the ledger" mine.Exec.qr_refused
    (P.Leakage.Ledger.refusal_count ledger);
  (* An AS outside every promise sees nothing. *)
  let stranger = Exec.run idx ~viewer:(G.Asn.of_int 999) q in
  check_bool "stranger sees nothing" true (stranger.Exec.qr_rows = []);
  check_int "stranger refused everything" (Idx.row_count idx)
    stranger.Exec.qr_refused

let alpha_never_leaks =
  qtest ~count:100 "exec: viewers only ever see α-authorized rows"
    QCheck2.Gen.(pair gen_query (int_bound 12))
    (fun (q, viewer) ->
      let _, idx = Lazy.force fixture in
      let viewer = G.Asn.of_int viewer in
      let res = Exec.run idx ~viewer q in
      (* Compare against the court's *unlimited* answer: with a limit the
         viewer's post-α top-N may legitimately reach past the court's
         cutoff, so the subset relation only holds against the full set. *)
      let court =
        Exec.run idx ~viewer:P.Leakage.court { q with Lang.q_limit = None }
      in
      List.for_all (Exec.authorized_for_row ~viewer) res.Exec.qr_rows
      && List.for_all (fun r -> List.mem r court.Exec.qr_rows) res.Exec.qr_rows)

(* ---- crash recovery ---------------------------------------------------------------- *)

let recovered_store_is_byte_identical () =
  (* Crash simulation: tear the final epoch record off the journal, so
     its rows frame becomes an uncommitted orphan; then resume and re-run
     the lost epoch.  Every query must render byte-identically against
     the untouched fixture store. *)
  let dir_ref, _ = Lazy.force fixture in
  with_dir (fun dir ->
      let eng, apply = mk_world ~jobs:1 ~cache:true fixture_seed in
      let s = Persist.start ~fsync:false ~dir () in
      run_epochs ~session:(Some s) eng apply ~from:0 ~until:fixture_epochs;
      Persist.close s;
      (* Find the last epoch frame's offset and cut the journal there. *)
      let last_epoch_off =
        let offs, _ =
          S.fold_frames ~dir ~init:[]
            ~f:(fun acc ~off p ->
              if Frame.tag p = Some Frame.tag_epoch then off :: acc else acc)
            ()
        in
        List.hd offs
      in
      Unix.truncate (S.journal_path ~dir) last_epoch_off;
      (* The orphaned rows frame must not surface in query results. *)
      (match Idx.build ~quiet:true ~dir () with
      | Ok idx -> check_int "orphan excluded" (fixture_epochs - 1) (Idx.max_epoch idx)
      | Error e -> Alcotest.failf "post-crash build: %s" e);
      (* Resume re-runs the lost epoch, duplicating its rows frame; the
         duplicate must be deduplicated, not doubled. *)
      let eng2, apply2 = mk_world ~jobs:1 ~cache:true fixture_seed in
      (match Persist.resume ~quiet:true ~dir ~engine:eng2 ~apply:apply2 () with
      | Ok rs ->
          check_int "resumed one epoch short" (fixture_epochs - 1)
            rs.Persist.rs_epoch
      | Error e -> Alcotest.failf "resume: %s" e);
      let s2 = Persist.start ~fsync:false ~dir () in
      run_epochs ~session:(Some s2) eng2 apply2 ~from:(fixture_epochs - 1)
        ~until:fixture_epochs;
      Persist.close s2;
      let render d qtext =
        match Idx.build ~quiet:true ~dir:d () with
        | Error e -> Alcotest.failf "build %s: %s" d e
        | Ok idx ->
            let q = parse_ok qtext in
            Exec.render_json ~query:q ~viewer:P.Leakage.court
              (Exec.run idx ~viewer:P.Leakage.court q)
      in
      List.iter
        (fun qtext ->
          check_string qtext (render dir_ref qtext) (render dir qtext))
        [
          "rows";
          "violations where epoch > 2 order by epoch desc";
          "rows where prefix in 10.0.0.0/8 and detected limit 7";
          "convictions";
        ])

let suite =
  [
    ("query: parser handles the ROADMAP example", `Quick, parser_roadmap_example);
    ("query: parser atoms", `Quick, parser_atoms);
    ("query: parser reports error positions", `Quick, parser_error_positions);
    parser_roundtrip;
    row_codec_roundtrip;
    rows_frame_roundtrip;
    ("store: fold_frames streams in order with offsets", `Quick, fold_frames_streams);
    ("store: fold_frames stops cleanly at a torn tail", `Quick, fold_frames_torn_tail);
    ("query: index rows = journal scan rows", `Quick, index_matches_journal_scan);
    planner_differential;
    ("query: planner picks the cheapest index", `Quick, planner_chooses_indexes);
    ("query: obs counters move", `Quick, query_counters);
    ("query: α viewer scoping and refusal accounting", `Quick, alpha_viewer_scoping);
    alpha_never_leaks;
    ("query: crash-recovered store answers byte-identically", `Quick, recovered_store_is_byte_identical);
  ]
