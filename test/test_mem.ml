(* Memory-governor tests: the incremental-vs-oracle RIB digest
   equivalence, the spill layer's digest invariance across
   ceiling x jobs x cache (including a pager that always fails reads),
   the governor's one shedding rule (over the ceiling, spill the cold
   vertices, then the rest) and its counters, a paging run's journal
   holding only spill pages, page frames, random-access journal reads,
   the 10k-AS generated-topology tier histogram, the CLI's --mem-ceiling
   and crashsoak spill kill-point contracts, a page whose record names no
   behaviour, and a paged outcome equal to the resident one field by
   field. *)

module E = Pvr_engine.Engine
module G = Pvr_bgp
module C = Pvr_crypto
module N = Pvr_net
module S = Pvr_store.Store
module Frame = Pvr_query.Frame
module W = Pvr_serve.Workload

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
      (Printf.sprintf "pvr-test-mem-%d-%d" (Unix.getpid ()) !n)

let rm_rf dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  with Sys_error _ | Unix.Unix_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ---- engine world with governor knobs -------------------------------------------- *)

(* Same world as Test_engine.run_engine / Test_store.mk_world, driven by
   the *streaming* churn twins (their DRBG equivalence makes digests
   comparable with every other suite's runs), with an optional ceiling so
   the governor's spilling can be forced.  A positive ceiling installs
   [pager], by default a fresh in-heap one. *)
let run_mem ?(jobs = 1) ?(cache = true) ?strategy ?(ceiling = 0)
    ?(pager = E.memory_pager ()) ?(epochs = 4) ?(per_epoch = fun _ _ -> ())
    seed =
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
    E.create ~jobs ~cache ?strategy ~salt_every:3 ~max_path_len:8
      (C.Drbg.of_int_seed (seed + 1))
      (Lazy.force Test_engine.ekeyring) ~topology:topo ~sim ()
  in
  if ceiling > 0 then E.set_governor eng ~ceiling ~pager;
  let lines = ref [] in
  for i = 1 to epochs do
    let r =
      E.epoch
        ~apply:(fun sim ->
          if i = 1 then List.length (G.Update_gen.Churn.seed churn sim)
          else
            List.length
              (G.Update_gen.Churn.step churn_rng ~turnover:0.3 churn sim))
        eng
    in
    lines := E.report_line r :: !lines;
    per_epoch eng r
  done;
  (eng, List.rev !lines)

let rib_digest_matches_oracle () =
  let checks = ref 0 in
  let eng, _ =
    run_mem 301
      ~per_epoch:(fun eng _ ->
        incr checks;
        check_string
          (Printf.sprintf "epoch %d incremental = from-scratch" !checks)
          (E.rib_digest_full eng) (E.rib_digest eng))
  in
  check_int "every epoch checked" 4 !checks;
  (* Spilling must not perturb the cached digests either. *)
  let eng', _ =
    run_mem 301 ~ceiling:1
      ~per_epoch:(fun eng _ ->
        check_string "spilled incremental = oracle" (E.rib_digest_full eng)
          (E.rib_digest eng))
  in
  check_string "same world, same digest" (E.rib_digest eng) (E.rib_digest eng')

let spill_differential () =
  let eng0, lines0 = run_mem 303 in
  let d0 = E.digest eng0 in
  let r0 = E.rib_digest eng0 in
  List.iter
    (fun (jobs, cache) ->
      let (eng, lines), d =
        counted (fun () -> run_mem ~jobs ~cache ~ceiling:1 303)
      in
      let label = Printf.sprintf "(jobs=%d cache=%b)" jobs cache in
      check_string ("digest " ^ label) d0 (E.digest eng);
      check_string ("rib digest " ^ label) r0 (E.rib_digest eng);
      (* Report lines are only stable across jobs; dirty/skipped reflect
         the cache setting by design. *)
      if cache then
        List.iter2
          (fun a b -> check_string ("report line " ^ label) a b)
          lines0 lines;
      check_bool ("spill engaged " ^ label) true
        (delta d "engine.mem.spills" > 0);
      check_int ("no page failures " ^ label) 0
        (delta d "engine.mem.page_read_failures"))
    [ (1, true); (4, true); (1, false) ]

let governor_stages () =
  (* A 1-word ceiling is over after every epoch, so the governor spills
     the cold vertices, then the rest: no vertex stays resident, and the
     pages are read back in later epochs. *)
  let eng, _ = run_mem 305 in
  let (eng2, _), d2 =
    counted (fun () ->
        run_mem ~ceiling:1 305
          ~per_epoch:(fun eng r ->
            check_int
              (Printf.sprintf "epoch %d: nothing resident" r.E.ep_epoch)
              0 (E.resident_states eng)))
  in
  check_bool "spills" true (delta d2 "engine.mem.spills" > 0);
  check_bool "page reads" true (delta d2 "engine.mem.page_reads" > 0);
  check_bool "states spilled" true (E.spilled_states eng2 > 0);
  check_string "digest unperturbed" (E.digest eng) (E.digest eng2)

let page_read_failure_recomputes () =
  (* A pager whose reads always fail: every unspill degrades to a dirty
     recomputation, which purity makes byte-identical. *)
  let broken =
    { E.pg_append = (fun ~blob:_ -> 0);
      pg_read = (fun ~off:_ -> Error "page lost") }
  in
  let eng0, _ = run_mem 307 in
  let (eng, _), d = counted (fun () -> run_mem ~ceiling:1 ~pager:broken 307) in
  check_string "digest" (E.digest eng0) (E.digest eng);
  check_bool "failures counted" true
    (delta d "engine.mem.page_read_failures" > 0)

(* A vertex carried forward from its page reports the same outcome as one
   carried forward from the heap, field by field: the report a caller sees
   does not depend on where the governor keeps the state.  The cheating
   sweep makes [vx_required] hold on some carried vertices. *)
let page_outcome_equals_resident () =
  let outcomes ?ceiling () =
    let eps = ref [] in
    let (_ : E.t * string list) =
      run_mem ~strategy:(Pvr.Adversary.Sweep Pvr.Adversary.Export_nonminimal)
        ?ceiling ~epochs:5
        ~per_epoch:(fun _ r -> eps := r.E.ep_outcomes :: !eps)
        313
    in
    List.rev !eps
  in
  let resident = outcomes () in
  let (paged : E.outcome list list), d =
    counted (fun () -> outcomes ~ceiling:1 ())
  in
  check_bool "pages read back" true (delta d "engine.mem.page_reads" > 0);
  check_bool "a carried vertex must detect" true
    (List.exists
       (List.exists (fun o -> (not o.E.vx_recomputed) && o.E.vx_required))
       resident);
  List.iteri
    (fun i (rs, ps) ->
      check_int (Printf.sprintf "epoch %d vertices" (i + 1)) (List.length rs)
        (List.length ps);
      List.iter2
        (fun (r : E.outcome) (p : E.outcome) ->
          let field name eq =
            check_bool
              (Printf.sprintf "epoch %d %s %s" (i + 1) r.E.vx_line name)
              true eq
          in
          field "vx_vertex" (r.E.vx_vertex = p.E.vx_vertex);
          field "vx_beneficiary" (r.vx_beneficiary = p.vx_beneficiary);
          field "vx_providers" (r.vx_providers = p.vx_providers);
          field "vx_routes" (r.vx_routes = p.vx_routes);
          field "vx_recomputed" (r.vx_recomputed = p.vx_recomputed);
          field "vx_behaviour" (r.vx_behaviour = p.vx_behaviour);
          field "vx_detected" (r.vx_detected = p.vx_detected);
          field "vx_convicted" (r.vx_convicted = p.vx_convicted);
          field "vx_evidence" (r.vx_evidence = p.vx_evidence);
          field "vx_kinds" (r.vx_kinds = p.vx_kinds);
          field "vx_leaked_bits" (r.vx_leaked_bits = p.vx_leaked_bits);
          field "vx_excess_bits" (r.vx_excess_bits = p.vx_excess_bits);
          field "vx_required" (r.vx_required = p.vx_required);
          field "vx_line" (r.vx_line = p.vx_line))
        rs ps)
    (List.combine resident paged)

(* ---- the journal of a paging run ------------------------------------------------- *)

(* A checkpointed run under a 1-word ceiling spills vertex state into its
   own journal through [Persist.pager].  Those spill pages are the only
   page frames the journal may hold: every other frame is evidence rows
   or an epoch record, each of which something reads back. *)
let paging_journal_holds_only_spills () =
  with_dir (fun dir ->
      let p =
        { W.defaults with W.p_seed = 311; p_epochs = 4; p_mem_ceiling = 1 }
      in
      let world = W.build_world ~quiet:true p in
      let res, d =
        counted (fun () ->
            W.engine_core ~quiet:true ~checkpoint_dir:dir ~fsync:false world p)
      in
      (match res with Ok _ -> () | Error e -> Alcotest.fail e);
      let frames =
        List.map
          (fun payload ->
            match Frame.decode payload with
            | Ok f -> f
            | Error e -> Alcotest.fail e)
          (S.recover ~quiet:true ~dir ()).S.rc_frames
      in
      let pages =
        List.length
          (List.filter (function Frame.Page _ -> true | _ -> false) frames)
      in
      let spills = delta d "engine.mem.spills" in
      check_bool "spill engaged" true (spills > 0);
      check_int "page frames = spills" spills pages)

(* ---- page frames and random-access journal reads -------------------------------- *)

let frame_page_roundtrip =
  qtest "frame: page round-trips; mangled never raises"
    QCheck2.Gen.(pair string string)
    (fun (run_id, blob) ->
      let pf = { Frame.pf_run_id = run_id; pf_blob = blob } in
      let enc = Frame.encode_page pf in
      (match Frame.decode enc with
      | Ok (Frame.Page pf') -> pf' = pf
      | Ok _ | Error _ -> false)
      &&
      let rng = C.Drbg.of_int_seed (String.length blob + String.length run_id) in
      match Frame.decode (N.Fuzz.mangle rng enc) with
      | Ok _ | Error _ -> true)

let read_frame_at_random_access () =
  with_dir (fun dir ->
      let st = S.open_ ~fsync:false ~dir () in
      let payloads = [ "alpha"; "beta"; String.make 300 'x' ] in
      let offs = List.map (fun p -> (p, S.append' st p)) payloads in
      S.close st;
      (* Every offset reads back its exact payload, in any order. *)
      List.iter
        (fun (p, off) ->
          match S.read_frame_at ~dir ~off with
          | Ok p' -> check_string "payload" p p'
          | Error e -> Alcotest.fail e)
        (List.rev offs);
      (* A reopened store appends at the right offset. *)
      let st2 = S.open_ ~fsync:false ~dir () in
      let off4 = S.append' st2 "gamma" in
      S.close st2;
      (match S.read_frame_at ~dir ~off:off4 with
      | Ok p -> check_string "post-reopen payload" "gamma" p
      | Error e -> Alcotest.fail e);
      (* Corrupt one payload byte: the CRC refuses the frame. *)
      let jp = S.journal_path ~dir in
      let full = read_file jp in
      let _, off1 = List.nth offs 1 in
      let b = Bytes.of_string full in
      Bytes.set b (off1 + 10) 'Z';
      write_file jp (Bytes.to_string b);
      (match S.read_frame_at ~dir ~off:off1 with
      | Ok _ -> Alcotest.fail "corrupt frame must not read back"
      | Error _ -> ());
      (* An offset pointing into a torn tail errors instead of raising. *)
      match S.read_frame_at ~dir ~off:(String.length full - 3) with
      | Ok _ -> Alcotest.fail "torn tail must not read back"
      | Error _ -> ())

(* ---- 10k-AS topology generation -------------------------------------------------- *)

let topology_10k_histogram () =
  (* Seeded regression: generation is near-linear (this would time out
     quadratically at 10k), and the preferential-attachment tier shape is
     pinned so the generator's DRBG stream never drifts. *)
  let topo = G.Topology.generate (C.Drbg.of_int_seed 4242) ~ases:10_000 () in
  check_int "size" 10_000 (G.Topology.size topo);
  check_int "links" 15486 (List.length (G.Topology.links topo));
  let hist = Hashtbl.create 8 in
  G.Asn.Map.iter
    (fun _ tier ->
      Hashtbl.replace hist tier
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist tier)))
    (G.Topology.tiers topo);
  List.iter
    (fun (tier, want) ->
      check_int
        (Printf.sprintf "tier %d population" tier)
        want
        (Option.value ~default:0 (Hashtbl.find_opt hist tier)))
    [
      (0, 16); (1, 1377); (2, 3222); (3, 3276); (4, 1555); (5, 454); (6, 87);
      (7, 11); (8, 1); (9, 1);
    ]

(* ---- CLI ------------------------------------------------------------------------- *)

let cli = "../bin/pvr_cli.exe"

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args)

let cli_spill_digest_matches () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let rep n = Filename.concat dir n in
      check_int "unbounded run" 0
        (run_cli
           (Printf.sprintf
              "engine --seed 7 --epochs 3 --tiers 1,2 --origins 2 --report %s"
              (rep "a.json")));
      check_int "spill run under a 1-word ceiling" 0
        (run_cli
           (Printf.sprintf
              "engine --seed 7 --epochs 3 --tiers 1,2 --origins 2 \
               --mem-ceiling 1 --report %s"
              (rep "b.json")));
      check_string "identical run reports" (read_file (rep "a.json"))
        (read_file (rep "b.json")))

let cli_crashsoak_spill () =
  (* Seed 37's schedule (with the spill phase pool) kills inside the
     governor's spill barrier at epoch 1; recovery must still be
     byte-identical. *)
  check_int "crashsoak with spill kill points" 0
    (run_cli
       "crashsoak --seed 37 --epochs 6 --kills 3 --mem-ceiling 1 \
        --no-corrupt")

(* A page whose "honest" reads "honost" keeps its framing but names no
   behaviour: the read succeeds, the record is refused, and the vertex
   recomputes to the same digest. *)
let page_unknown_behaviour_recomputes () =
  let honost blob =
    let b = Bytes.of_string blob in
    for i = 0 to Bytes.length b - 6 do
      if Bytes.sub_string b i 6 = "honest" then Bytes.set b (i + 4) 'o'
    done;
    Bytes.to_string b
  in
  let mem = E.memory_pager () in
  let pager =
    {
      mem with
      E.pg_read = (fun ~off -> Result.map honost (mem.E.pg_read ~off));
    }
  in
  let eng0, _ = run_mem 309 in
  let (eng, _), d = counted (fun () -> run_mem ~ceiling:1 ~pager 309) in
  check_string "digest" (E.digest eng0) (E.digest eng);
  let reads = delta d "engine.mem.page_reads" in
  check_bool "pages read back" true (reads > 0);
  check_int "every page read is refused" reads
    (delta d "engine.mem.page_read_failures")

let suite =
  [
    ("rib digest: incremental equals oracle", `Quick, rib_digest_matches_oracle);
    ("spill differential: ceiling x jobs x cache", `Quick, spill_differential);
    ("governor: shedding stages and counters", `Quick, governor_stages);
    ("governor: failed page reads recompute", `Quick,
     page_read_failure_recomputes);
    ("journal: a paging run pages only spills", `Quick,
     paging_journal_holds_only_spills);
    frame_page_roundtrip;
    ("store: random-access frame reads", `Quick, read_frame_at_random_access);
    ("topology: 10k-AS generation histogram", `Quick, topology_10k_histogram);
    ("cli: mem-ceiling digest = unbounded", `Quick, cli_spill_digest_matches);
    ("cli: crashsoak survives spill kill points", `Slow, cli_crashsoak_spill);
    ("governor: a page naming no behaviour recomputes", `Quick,
     page_unknown_behaviour_recomputes);
    ("governor: a paged outcome equals the resident one", `Quick,
     page_outcome_equals_resident);
  ]
