(* Tests for pvr_store and the engine's journal-only resume: CRC framing,
   atomic whole-file writes, journal append/recover roundtrips (with
   counter cross-checks), torn-tail and corrupt-frame recovery, the
   decoder-robustness property (any bit-flip/truncation of a journal is
   cleanly rejected or safely truncated — never an exception), resume
   equivalence at every epoch boundary for jobs 1/4 and cache on/off, a
   checkpointed run writing nothing but its journal, old stores with
   snapshot files and index-checkpoint frames still resuming, and the
   CLI's exit-code contract (0 ok, 1 violation, 2 usage, 3 unrecoverable
   store). *)

module P = Pvr
module E = Pvr_engine.Engine
module Persist = Pvr_engine.Persist
module G = Pvr_bgp
module C = Pvr_crypto
module N = Pvr_net
module S = Pvr_store.Store
module AF = Pvr_store.Atomic_file
module Codec = Pvr_crypto.Codec
module Crc32 = Pvr_store.Crc32

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let counted = Test_engine.counted
let delta = Test_engine.delta

(* Fresh scratch directories under the system temp dir, removed best-effort
   at the end of each test. *)
let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pvr-test-store-%d-%d" (Unix.getpid ()) !n)

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

(* ---- crc32 ---------------------------------------------------------------------- *)

let crc32_known_vectors () =
  (* The IEEE 802.3 check value, and a couple of fixed points. *)
  check_int "123456789" 0xCBF43926 (Crc32.digest "123456789");
  check_int "empty" 0 (Crc32.digest "");
  check_int "'a'" 0xE8B7BE43 (Crc32.digest "a")

let crc32_update_composes =
  qtest "crc32: update composes over any split"
    QCheck2.Gen.(pair string (int_bound 64))
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod String.length s in
      let a = String.sub s 0 cut
      and b = String.sub s cut (String.length s - cut) in
      Crc32.digest s = Crc32.update (Crc32.update 0 a) b)

(* ---- atomic file ---------------------------------------------------------------- *)

let atomic_write_replaces () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "out.json" in
      AF.write ~fsync:false path "first";
      check_string "initial write" "first" (read_file path);
      AF.write ~fsync:false path "second, longer content";
      check_string "atomic replace" "second, longer content" (read_file path);
      (* No temp files may survive the happy path. *)
      check_int "only the target remains" 1 (Array.length (Sys.readdir dir)))

(* ---- codec ---------------------------------------------------------------------- *)

let codec_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.u32 buf 0;
  Codec.u32 buf 0xFFFF_FFFF;
  Codec.str buf "";
  Codec.str buf (String.make 300 '\x00');
  Codec.bool_ buf true;
  Codec.bool_ buf false;
  let payload = Buffer.contents buf in
  match
    Codec.decode payload (fun r ->
        let a = Codec.get_u32 r in
        let b = Codec.get_u32 r in
        let s1 = Codec.get_str r in
        let s2 = Codec.get_str r in
        let t = Codec.get_bool r in
        let f = Codec.get_bool r in
        (a, b, s1, s2, t, f))
  with
  | Error e -> Alcotest.fail e
  | Ok (a, b, s1, s2, t, f) ->
      check_int "u32 zero" 0 a;
      check_int "u32 max" 0xFFFF_FFFF b;
      check_string "empty str" "" s1;
      check_string "binary str" (String.make 300 '\x00') s2;
      check_bool "true" true t;
      check_bool "false" false f

let codec_rejects_trailing () =
  let buf = Buffer.create 8 in
  Codec.u32 buf 7;
  let payload = Buffer.contents buf ^ "junk" in
  match Codec.decode payload Codec.get_u32 with
  | Ok _ -> Alcotest.fail "trailing bytes must be rejected"
  | Error _ -> ()

(* ---- journal roundtrip + counters ----------------------------------------------- *)

let journal_roundtrip_counters () =
  with_dir (fun dir ->
      let payloads = List.init 5 (fun i -> Printf.sprintf "payload-%d-%s" i (String.make i 'x')) in
      let (), d_append =
        counted (fun () ->
            let s = S.open_ ~fsync:true ~dir () in
            List.iter (S.append s) payloads;
            S.close s)
      in
      (* Counter cross-check: accounted journal bytes = physical file size. *)
      let journal_size =
        (Unix.stat (S.journal_path ~dir)).Unix.st_size
      in
      check_int "journal.bytes = file size" journal_size
        (delta d_append "store.journal.bytes");
      check_int "journal.appends" 5 (delta d_append "store.journal.appends");
      check_bool "fsync.count > 0" true (delta d_append "store.fsync.count" > 0);
      let rc, d_rec = counted (fun () -> S.recover ~quiet:true ~dir ()) in
      check_bool "frames roundtrip" true (rc.S.rc_frames = payloads);
      check_int "replay.frames" 5 (delta d_rec "store.replay.frames");
      check_int "nothing dropped" 0 rc.S.rc_dropped;
      check_int "nothing truncated" 0 rc.S.rc_truncated_bytes)

let journal_truncates_torn_tail () =
  with_dir (fun dir ->
      let s = S.open_ ~fsync:false ~dir () in
      List.iter (S.append s) [ "alpha"; "beta"; "gamma" ];
      S.close s;
      let jp = S.journal_path ~dir in
      let full = read_file jp in
      (* Tear mid-way through the last frame, as a crash during write would. *)
      write_file jp (String.sub full 0 (String.length full - 3));
      let rc = S.recover ~quiet:true ~dir () in
      check_bool "valid prefix survives" true
        (rc.S.rc_frames = [ "alpha"; "beta" ]);
      check_int "one frame dropped" 1 rc.S.rc_dropped;
      check_bool "tail bytes accounted" true (rc.S.rc_truncated_bytes > 0);
      (* Recovery physically truncated the journal: a second recovery is
         clean and appending resumes from a frame boundary. *)
      let rc2 = S.recover ~quiet:true ~dir () in
      check_int "second recovery clean" 0 rc2.S.rc_dropped;
      let s = S.open_ ~fsync:false ~dir () in
      S.append s "delta";
      S.close s;
      let rc3 = S.recover ~quiet:true ~dir () in
      check_bool "append after truncation" true
        (rc3.S.rc_frames = [ "alpha"; "beta"; "delta" ]))

let corrupt_mid_frame_drops_suffix () =
  with_dir (fun dir ->
      let s = S.open_ ~fsync:false ~dir () in
      List.iter (S.append s) [ "alpha"; "beta"; "gamma" ];
      S.close s;
      let jp = S.journal_path ~dir in
      let full = read_file jp in
      (* Flip one byte inside the second frame's payload. *)
      let off = (String.length full / 2) + 1 in
      let mangled =
        String.mapi
          (fun i c -> if i = off then Char.chr (Char.code c lxor 0x40) else c)
          full
      in
      write_file jp mangled;
      let rc = S.recover ~quiet:true ~dir () in
      check_bool "prefix before corruption survives" true
        (match rc.S.rc_frames with "alpha" :: _ -> true | _ -> false);
      check_bool "corrupt frame not replayed" true
        (not (List.mem "gamma" rc.S.rc_frames)
        || not (List.mem "beta" rc.S.rc_frames));
      check_bool "drops counted" true (rc.S.rc_dropped > 0))

(* ---- decoder robustness (qcheck) ------------------------------------------------ *)

(* A pristine journal built once; each property iteration mangles a
   byte-level copy and recovery must neither raise nor replay mangled
   bytes as valid frames beyond the CRC's reach. *)
let pristine_store =
  lazy
    (let dir = fresh_dir () in
     let s = S.open_ ~fsync:false ~dir () in
     for i = 1 to 6 do
       S.append s (Printf.sprintf "frame-%d-%s" i (String.make (7 * i) 'p'))
     done;
     S.close s;
     (dir, read_file (S.journal_path ~dir)))

let recover_never_raises_on_mangled_journal =
  qtest ~count:60 "store: recover never raises on mangled journal"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let dir, pristine = Lazy.force pristine_store in
      let rng = C.Drbg.of_int_seed seed in
      write_file (S.journal_path ~dir) (N.Fuzz.mangle rng pristine);
      let rc = S.recover ~quiet:true ~dir () in
      (* Every frame recovery replays is byte-identical to one of the
         originals: the CRC guards content, never silently mangled bytes.
         (A mangle that splices the journal can reorder whole valid frames
         — position integrity is the resume layer's run-id/epoch check.) *)
      let originals =
        List.init 6 (fun i ->
            Printf.sprintf "frame-%d-%s" (i + 1) (String.make (7 * (i + 1)) 'p'))
      in
      List.for_all (fun f -> List.mem f originals) rc.S.rc_frames)

(* ---- resume equivalence --------------------------------------------------------- *)

(* Engine world sharing Test_engine's topology and keyring (keygen
   dominates test runtime).  Same construction as Test_engine.run_engine,
   with the epoch loop factored so it can stop, resume and continue. *)
let mk_world ~jobs ~cache seed =
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
    E.create ~jobs ~cache ~salt_every:3 ~max_path_len:8
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

let resume_equivalence () =
  let seed = 77 and epochs = 4 in
  List.iter
    (fun (jobs_a, cache_a, jobs_b, cache_b) ->
      (* Uninterrupted reference run. *)
      let ref_eng, ref_apply = mk_world ~jobs:jobs_a ~cache:cache_a seed in
      run_epochs ~session:None ref_eng ref_apply ~from:0 ~until:epochs;
      let want = E.digest ref_eng in
      (* Checkpoint + resume at every epoch boundary, including 0 (empty
         store) and [epochs] (nothing left to run). *)
      for boundary = 0 to epochs do
        with_dir (fun dir ->
            let eng1, apply1 = mk_world ~jobs:jobs_a ~cache:cache_a seed in
            let s1 = Persist.start ~fsync:false ~dir () in
            run_epochs ~session:(Some s1) eng1 apply1 ~from:0 ~until:boundary;
            Persist.close s1;
            (* "Crash": eng1 is dropped here.  Resume into a fresh engine,
               possibly with a different jobs/cache configuration. *)
            let eng2, apply2 = mk_world ~jobs:jobs_b ~cache:cache_b seed in
            match Persist.resume ~quiet:true ~dir ~engine:eng2 ~apply:apply2 () with
            | Error e ->
                Alcotest.failf "resume at boundary %d: %s" boundary e
            | Ok rs ->
                check_int
                  (Printf.sprintf "resume position (boundary %d)" boundary)
                  boundary rs.Persist.rs_epoch;
                let s2 =
                  Persist.start ~fsync:false ~dir ()
                in
                run_epochs ~session:(Some s2) eng2 apply2 ~from:rs.Persist.rs_epoch
                  ~until:epochs;
                Persist.close s2;
                check_string
                  (Printf.sprintf
                     "digest (boundary %d, jobs %d->%d, cache %b->%b)" boundary
                     jobs_a jobs_b cache_a cache_b)
                  want (E.digest eng2))
      done)
    [ (1, true, 1, true); (1, true, 4, true); (4, false, 1, false) ]

(* A journaled run, torn partway into its epoch-[torn] record so that
   epoch's rows frame is left behind as an uncommitted orphan. *)
let tear_epoch_record dir ~torn =
  let offs, fe =
    S.fold_frames ~dir ~init:[]
      ~f:(fun acc ~off payload ->
        match Pvr_query.Frame.tag payload with
        | Some t when t = Pvr_query.Frame.tag_epoch -> off :: acc
        | _ -> acc)
      ()
  in
  check_bool "clean walk before tearing" true (fe.S.fe_error = None);
  let off = List.nth (List.rev offs) (torn - 1) in
  let jp = S.journal_path ~dir in
  write_file jp (String.sub (read_file jp) 0 (off + 5))

let resume_after_torn_journal () =
  (* Kill simulation: run 4 epochs and tear the journal partway into the
     epoch-4 record.  Resume replays the churn to epoch 3, the newest
     record left, and still reaches the reference digest. *)
  let seed = 83 and epochs = 4 in
  let ref_eng, ref_apply = mk_world ~jobs:1 ~cache:true seed in
  run_epochs ~session:None ref_eng ref_apply ~from:0 ~until:epochs;
  let want = E.digest ref_eng in
  with_dir (fun dir ->
      let eng1, apply1 = mk_world ~jobs:1 ~cache:true seed in
      let s1 = Persist.start ~fsync:false ~dir () in
      run_epochs ~session:(Some s1) eng1 apply1 ~from:0 ~until:epochs;
      Persist.close s1;
      tear_epoch_record dir ~torn:epochs;
      let eng2, apply2 = mk_world ~jobs:1 ~cache:true seed in
      match Persist.resume ~quiet:true ~dir ~engine:eng2 ~apply:apply2 () with
      | Error e -> Alcotest.fail e
      | Ok rs ->
          check_int "resumed at epoch 3" 3 rs.Persist.rs_epoch;
          check_int "three epoch records replayed" 3 rs.Persist.rs_replayed;
          check_bool "torn frame dropped" true (rs.Persist.rs_dropped > 0);
          let s2 = Persist.start ~fsync:false ~dir () in
          run_epochs ~session:(Some s2) eng2 apply2 ~from:3 ~until:epochs;
          Persist.close s2;
          check_string "digest after torn-tail resume" want (E.digest eng2))

let resume_rejects_foreign_store () =
  with_dir (fun dir ->
      let eng1, apply1 = mk_world ~jobs:1 ~cache:true 91 in
      let s1 = Persist.start ~fsync:false ~dir () in
      run_epochs ~session:(Some s1) eng1 apply1 ~from:0 ~until:2;
      Persist.close s1;
      (* Different seed ⇒ different run id: the store must be refused, not
         silently restarted. *)
      let eng2, apply2 = mk_world ~jobs:1 ~cache:true 92 in
      match Persist.resume ~quiet:true ~dir ~engine:eng2 ~apply:apply2 () with
      | Ok _ -> Alcotest.fail "foreign store must not resume"
      | Error _ -> ())

(* ---- CLI exit codes ------------------------------------------------------------- *)

let cli = "../bin/pvr_cli.exe"

let run_cli args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args)

let cli_exit_codes () =
  with_dir (fun dir ->
        check_int "unknown flag is usage error" 2 (run_cli "engine --bogus-flag");
        check_int "unknown command is usage error" 2 (run_cli "frobnicate");
        check_int "crashsoak kills>epochs is usage error" 2
          (run_cli "crashsoak --kills 9 --epochs 3");
        check_int "clean checkpointed engine run" 0
          (run_cli
             (Printf.sprintf
                "engine --seed 7 --epochs 2 --tiers 1,2 --origins 2 \
                 --checkpoint %s --no-fsync"
                dir));
        check_int "resume continues cleanly" 0
          (run_cli
             (Printf.sprintf
                "engine --seed 7 --epochs 3 --tiers 1,2 --origins 2 \
                 --checkpoint %s --resume --no-fsync"
                dir));
        check_int "wrong-seed resume is unrecoverable" 3
          (run_cli
             (Printf.sprintf
                "engine --seed 8 --epochs 3 --tiers 1,2 --origins 2 \
                 --checkpoint %s --resume --no-fsync"
                dir)))

let cli_crashsoak_smoke () =
  check_int "crashsoak recovers to identical digest" 0
    (run_cli "crashsoak --seed 5 --epochs 4 --kills 2 --tiers 1,2 --origins 2")

(* ---- the journal is the whole store ---------------------------------------------- *)

module W = Pvr_serve.Workload
module Frame = Pvr_query.Frame
module Idx = Pvr_query.Evidence_index

let checkpointed_run_writes_only_journal () =
  with_dir (fun dir ->
      let p =
        {
          W.defaults with
          W.p_seed = 313;
          p_epochs = 3;
          p_tiers = "1,2";
          p_origins = 2;
        }
      in
      (match
         W.engine_core ~quiet:true ~checkpoint_dir:dir ~fsync:false
           (W.build_world ~quiet:true p)
           p
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      check_bool "only journal.pvrj" true
        (Sys.readdir dir = [| "journal.pvrj" |]);
      let tags, fe =
        S.fold_frames ~dir ~init:[]
          ~f:(fun acc ~off:_ payload -> Frame.tag payload :: acc)
          ()
      in
      check_bool "clean journal" true (fe.S.fe_error = None);
      check_int "a rows frame and an epoch record per epoch" 6
        (List.length tags);
      let known = [ Frame.tag_epoch; Frame.tag_rows; Frame.tag_page ] in
      check_bool "every frame is tag 1, 2 or 4" true
        (List.for_all
           (function Some t -> List.mem t known | None -> false)
           tags))

(* A store written before resume became journal-only: a snapshot file
   beside the journal and a tag-3 index-checkpoint frame inside it.  The
   frame is well framed under its old layout (run id, epoch, then a blob
   of index version 1 holding no epochs), so a reader that trusted it
   would lose every row before it.  Neither may change what resume or the
   index builder see. *)
let old_store_still_resumes () =
  let seed = 87 and epochs = 4 in
  let rows_of dir =
    match Idx.build ~quiet:true ~dir () with
    | Ok idx -> List.map (Idx.row idx) (Idx.ids_all idx)
    | Error e -> Alcotest.failf "build: %s" e
  in
  with_dir (fun dir_ref ->
      let ref_eng, ref_apply = mk_world ~jobs:1 ~cache:true seed in
      let s = Persist.start ~fsync:false ~dir:dir_ref () in
      run_epochs ~session:(Some s) ref_eng ref_apply ~from:0 ~until:epochs;
      Persist.close s;
      with_dir (fun dir ->
          let eng1, apply1 = mk_world ~jobs:1 ~cache:true seed in
          let s1 = Persist.start ~fsync:false ~dir () in
          run_epochs ~session:(Some s1) eng1 apply1 ~from:0 ~until:2;
          Persist.close s1;
          let run_id = E.Checkpoint.run_id eng1 in
          let index_blob =
            let b = Buffer.create 64 in
            Codec.u32 b 1;
            Codec.str b run_id;
            Codec.u32 b 0;
            Buffer.contents b
          in
          let tag3 =
            let b = Buffer.create 128 in
            Codec.u32 b 3;
            Codec.str b run_id;
            Codec.u32 b 2;
            Codec.str b index_blob;
            Buffer.contents b
          in
          let st = S.open_ ~fsync:false ~dir () in
          S.append st tag3;
          S.close st;
          write_file
            (Filename.concat dir "snap-0000000002.pvrs")
            ("PVRS\001\002" ^ String.make 64 's');
          let eng2, apply2 = mk_world ~jobs:1 ~cache:true seed in
          match
            Persist.resume ~quiet:true ~dir ~engine:eng2 ~apply:apply2 ()
          with
          | Error e -> Alcotest.fail e
          | Ok rs ->
              check_int "resumed at epoch 2" 2 rs.Persist.rs_epoch;
              check_int "the tag-3 frame is skipped" 1 rs.Persist.rs_dropped;
              let s2 = Persist.start ~fsync:false ~dir () in
              run_epochs ~session:(Some s2) eng2 apply2 ~from:2 ~until:epochs;
              Persist.close s2;
              check_string "digest" (E.digest ref_eng) (E.digest eng2);
              check_bool "the index answers the same rows" true
                (rows_of dir = rows_of dir_ref)))

let suite =
  [
    Alcotest.test_case "crc32: known vectors" `Quick crc32_known_vectors;
    crc32_update_composes;
    Alcotest.test_case "atomic file: write + replace" `Quick
      atomic_write_replaces;
    Alcotest.test_case "codec: roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "codec: rejects trailing bytes" `Quick
      codec_rejects_trailing;
    Alcotest.test_case "journal: roundtrip + counter cross-check" `Quick
      journal_roundtrip_counters;
    Alcotest.test_case "journal: torn tail truncated, appends continue" `Quick
      journal_truncates_torn_tail;
    Alcotest.test_case "journal: corrupt mid-frame drops suffix" `Quick
      corrupt_mid_frame_drops_suffix;
    recover_never_raises_on_mangled_journal;
    Alcotest.test_case "resume: equivalence at every epoch boundary" `Slow
      resume_equivalence;
    Alcotest.test_case "resume: torn journal tail recovers" `Quick
      resume_after_torn_journal;
    Alcotest.test_case "resume: rejects foreign store" `Quick
      resume_rejects_foreign_store;
    Alcotest.test_case "cli: exit-code contract" `Slow cli_exit_codes;
    Alcotest.test_case "cli: crashsoak smoke" `Slow cli_crashsoak_smoke;
    Alcotest.test_case "store: a checkpointed run writes only its journal"
      `Quick checkpointed_run_writes_only_journal;
    Alcotest.test_case
      "store: a store with old snapshot and index frames still resumes"
      `Quick old_store_still_resumes;
  ]
