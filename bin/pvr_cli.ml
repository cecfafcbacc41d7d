(* pvr: command-line driver for the PVR library.

     pvr round --behaviour false-bits -k 8     run one Figure-1 round
     pvr check <config-file>                   parse + static-check a policy
     pvr topology --tiers 2,4,8                BGP convergence statistics
     pvr primitives                            crypto primitive timings
     pvr engine --checkpoint DIR --resume      durable continuous verification
     pvr crashsoak --seed 42                   kill/resume crash-recovery soak

   Exit codes (engine, soak, crashsoak): 0 success, 1 property violation
   (conviction of an honest prover, soak violation, digest divergence),
   2 usage error, 3 unrecoverable store. *)

module P = Pvr
module G = Pvr_bgp
module R = Pvr_rfg
module C = Pvr_crypto
module Obs = Pvr_obs

let asn = G.Asn.of_int

(* Shared --stats behaviour: enable the pvr_obs registry for the command
   and print the JSON snapshot (op counts, byte counts, span histograms)
   when it finishes. *)
let with_stats stats f =
  if not stats then f ()
  else begin
    Obs.set_enabled true;
    Obs.reset_all ();
    Fun.protect
      ~finally:(fun () ->
        print_endline
          (Obs.Json.to_string (Obs.Snapshot.to_json (Obs.Snapshot.capture ()))))
      f
  end

(* ---- round ---------------------------------------------------------------- *)

let behaviour_conv =
  let parse s =
    match
      List.find_opt (fun b -> P.Adversary.to_string b = s) P.Adversary.all
    with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            ("unknown behaviour; one of: "
            ^ String.concat ", " (List.map P.Adversary.to_string P.Adversary.all)))
  in
  let print ppf b = Format.pp_print_string ppf (P.Adversary.to_string b) in
  Cmdliner.Arg.conv (parse, print)

let strategy_conv =
  let parse s =
    match P.Adversary.strategy_of_string s with
    | Some st -> Ok st
    | None ->
        Error
          (`Msg
            ("unknown strategy; one of: "
            ^ String.concat ", "
                (List.map P.Adversary.strategy_to_string
                   P.Adversary.all_strategies)
            ^ ", or any behaviour name for a sweep of it"))
  in
  let print ppf st =
    Format.pp_print_string ppf (P.Adversary.strategy_to_string st)
  in
  Cmdliner.Arg.conv (parse, print)

let run_round behaviour k bits seed dump_evidence stats =
  with_stats stats (fun () ->
  let failed = ref false in
  let rng = C.Drbg.of_int_seed seed in
  let a = asn 1 and b = asn 100 in
  let providers = List.init k (fun i -> asn (10 + i)) in
  Printf.printf "Generating %d RSA-%d keys...\n%!" (k + 2) bits;
  let keyring = P.Keyring.create ~bits rng (a :: b :: providers) in
  let prefix = G.Prefix.of_string "203.0.113.0/24" in
  let routes =
    List.mapi
      (fun i n ->
        let len = 1 + (i mod 8) in
        let path =
          List.init len (fun j -> if j = 0 then n else asn (8000 + j))
        in
        let base = G.Route.originate ~asn:n prefix in
        (n, { base with G.Route.as_path = path; next_hop = n }))
      providers
  in
  let r =
    P.Runner.min_round behaviour rng keyring ~prover:a ~beneficiary:b ~epoch:1
      ~prefix ~routes
  in
  Printf.printf "behaviour=%s detected=%b convicted=%b messages=%d\n"
    (P.Adversary.to_string behaviour)
    r.P.Runner.detected r.P.Runner.convicted r.P.Runner.messages;
  List.iter
    (fun (_, e, v) ->
      Printf.printf "  [%s] %s\n" (P.Judge.verdict_to_string v)
        (P.Evidence.describe e);
      if dump_evidence then
        Printf.printf "    transportable evidence (hex): %s...\n"
          (String.sub (P.Evidence_codec.to_hex e) 0
             (min 96 (String.length (P.Evidence_codec.to_hex e)))))
    r.P.Runner.judged;
  if behaviour = P.Adversary.Honest && r.P.Runner.detected then failed := true;
  if !failed then 1 else 0)

(* ---- soak ------------------------------------------------------------------- *)

(* Adversarial soak under an unreliable network: every behaviour, [rounds]
   times, over fault-injected links.  Asserts the §2.3 properties the whole
   way: Honest is never convicted (Accuracy), and any Byzantine behaviour
   whose witnessing messages were delivered is detected and convicted
   (Detection/Evidence).  All randomness derives from --seed, so the output
   is byte-identical across runs with the same arguments. *)
let run_soak seed rounds k bits drop duplicate delay reorder budget stats =
  with_stats stats (fun () ->
      let master = C.Drbg.of_int_seed seed in
      let a = asn 1 and b = asn 100 in
      let providers = List.init k (fun i -> asn (10 + i)) in
      Printf.printf
        "soak: seed=%d rounds=%d k=%d drop=%.2f duplicate=%.2f delay=%d \
         reorder=%b budget=%d\n%!"
        seed rounds k drop duplicate delay reorder budget;
      let keyring =
        P.Keyring.create ~bits (C.Drbg.split master "keys") (a :: b :: providers)
      in
      let policy =
        Pvr_net.faulty ~drop ~duplicate ~delay_max:delay ~reorder ()
      in
      let faults =
        {
          P.Runner.perfect_faults with
          fp_policy = policy;
          fp_retry_budget = budget;
        }
      in
      let max_path_len = 8 in
      let prefix = G.Prefix.of_string "203.0.113.0/24" in
      let violations = ref 0 in
      let required = ref 0 in
      let retries = ref 0 and timeouts = ref 0 and drops = ref 0 in
      for i = 1 to rounds do
        let round_rng = C.Drbg.split master (Printf.sprintf "round-%d" i) in
        let routes =
          List.map
            (fun n ->
              let len = 1 + C.Drbg.uniform_int round_rng max_path_len in
              let path =
                List.init len (fun j ->
                    if j = 0 then n else asn (8000 + (100 * i) + j))
              in
              let base = G.Route.originate ~asn:n prefix in
              (n, { base with G.Route.as_path = path; next_hop = n }))
            providers
        in
        List.iter
          (fun beh ->
            let rng =
              C.Drbg.split master
                (Printf.sprintf "round-%d.%s" i (P.Adversary.to_string beh))
            in
            let nr =
              P.Runner.min_round_faulty ~max_path_len ~faults beh rng keyring
                ~prover:a ~beneficiary:b ~epoch:i ~prefix ~routes
            in
            let r = nr.P.Runner.base in
            let must =
              beh <> P.Adversary.Honest
              && P.Runner.detection_expected beh ~beneficiary:b ~routes nr
            in
            if must then incr required;
            retries := !retries + nr.P.Runner.net_retries;
            timeouts := !timeouts + nr.P.Runner.net_timeouts;
            drops := !drops + nr.P.Runner.net_drops + nr.P.Runner.gossip_drops;
            let bad_accuracy =
              beh = P.Adversary.Honest && r.P.Runner.convicted
            in
            let bad_detection =
              must && not (r.P.Runner.detected && r.P.Runner.convicted)
            in
            if bad_accuracy || bad_detection then begin
              incr violations;
              Printf.printf "VIOLATION round=%d behaviour=%s accuracy=%b \
                             detection=%b\n"
                i (P.Adversary.to_string beh) bad_accuracy bad_detection
            end;
            Printf.printf
              "round=%-3d behaviour=%-18s detected=%-5b convicted=%-5b \
               required=%-5b retries=%d timeouts=%d drops=%d\n"
              i (P.Adversary.to_string beh) r.P.Runner.detected
              r.P.Runner.convicted must nr.P.Runner.net_retries
              nr.P.Runner.net_timeouts
              (nr.P.Runner.net_drops + nr.P.Runner.gossip_drops))
          P.Adversary.all
      done;
      Printf.printf
        "soak summary: runs=%d required_detections=%d retries=%d timeouts=%d \
         drops=%d violations=%d\n"
        (rounds * List.length P.Adversary.all)
        !required !retries !timeouts !drops !violations;
      if !violations > 0 then 1 else 0)

(* ---- engine ----------------------------------------------------------------- *)

(* Continuous topology-wide verification: a hierarchy topology under churn,
   every promising AS re-verified each epoch by the incremental engine.
   Same determinism contract as soak — everything derives from --seed — plus
   the engine's own: the digest is identical for any --jobs value and for
   the cache on or off.  With --checkpoint the run journals every epoch,
   and --resume continues a crashed run from the journal. *)

(* The engine parameter record, world construction and the epoch loop are
   factored into {!Pvr_serve.Workload} so that daemon sessions (`pvr
   serve`) and these batch commands run the identical code path — the
   serve-vs-batch digest differential holds by construction.  The type
   equation re-exports the record so the flag terms below construct it
   literally. *)

type eparams = Pvr_serve.Workload.params = {
  p_seed : int;
  p_tiers : string;
  p_peering : float;
  p_ases : int; (* > 0: power-law generated topology instead of --tiers *)
  p_gen_seed : int option;
  p_epochs : int;
  p_jobs : int;
  p_intern : bool;
  p_bits : int;
  p_cache : bool;
  p_salt_every : int;
  p_turnover : float;
  p_origins : int;
  p_ppo : int;
  p_anycast : int;
  p_drop : float;
  p_strategy : P.Adversary.strategy;
  p_mem_ceiling : int; (* major-heap budget in words; 0 = unbounded *)
}

let build_world = Pvr_serve.Workload.build_world
let engine_core = Pvr_serve.Workload.engine_core

let run_engine p checkpoint resume no_fsync report stats =
  if resume && checkpoint = None then begin
    Printf.eprintf "pvr engine: --resume requires --checkpoint DIR\n%!";
    2
  end
  else
    with_stats stats (fun () ->
        let world = build_world p in
        match
          engine_core ?checkpoint_dir:checkpoint ~resume ~fsync:(not no_fsync)
            world p
        with
        | Error e ->
            Printf.eprintf "pvr engine: unrecoverable store: %s\n%!" e;
            3
        | Ok (digest, convicted) ->
            Printf.printf "engine digest: %s\n" digest;
            Option.iter
              (fun file ->
                Pvr_store.Atomic_file.write ~fsync:false file
                  (Printf.sprintf
                     "{ \"seed\": %d, \"epochs\": %d, \"jobs\": %d, \"cache\": \
                      %b, \"convicted\": %d, \"digest\": \"%s\" }\n"
                     p.p_seed p.p_epochs p.p_jobs p.p_cache convicted digest))
              report;
            if convicted > 0 then 1 else 0)

(* ---- crashsoak -------------------------------------------------------------- *)

(* Crash-recovery soak: run the checkpointed engine in forked children,
   SIGKILL each child at a seeded (epoch, phase) point, optionally corrupt
   the store between restarts, resume, and finally compare the recovered
   digest against an uninterrupted in-process run of the same seed.  The
   kill/corruption schedule derives from --seed via an independent DRBG
   stream, so failures reproduce exactly. *)

exception Crashsoak_abort of int

(* Runs under a mem ceiling spill, so they add the two paging barriers to
   the kill pool.  A scheduled spill/unspill kill may never fire in an
   epoch with no paging activity — the child then finishes early, which
   the soak loop tolerates. *)
let phases ~spill =
  if spill then [| "apply"; "collect"; "unspill"; "verify"; "spill"; "record" |]
  else [| "apply"; "collect"; "verify"; "record" |]

(* [kills] distinct kill epochs in 1..epochs (partial Fisher-Yates), each
   with a random phase; sorted so each restart makes forward progress. *)
let kill_schedule rng ~phases ~epochs ~kills =
  let pool = Array.init epochs (fun i -> i + 1) in
  for i = 0 to kills - 1 do
    let j = i + C.Drbg.uniform_int rng (epochs - i) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  Array.sub pool 0 kills |> Array.to_list |> List.sort compare
  |> List.map (fun e -> (e, phases.(C.Drbg.uniform_int rng (Array.length phases))))

let flip_byte rng path =
  try
    let len = (Unix.stat path).Unix.st_size in
    if len > 0 then begin
      let off = C.Drbg.uniform_int rng len in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          if Unix.read fd b 0 1 = 1 then begin
            Bytes.set b 0
              (Char.chr
                 (Char.code (Bytes.get b 0) lxor (1 lsl C.Drbg.uniform_int rng 8)));
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end);
      Printf.printf "crashsoak: corrupted journal (bit flip at offset %d)\n%!"
        off
    end
  with Unix.Unix_error _ | Sys_error _ -> ()

let inject_corruption rng dir =
  let journal = Pvr_store.Store.journal_path ~dir in
  match C.Drbg.uniform_int rng 3 with
  | 0 -> (
      (* Tear the journal tail, as an interrupted write would. *)
      try
        let len = (Unix.stat journal).Unix.st_size in
        if len > 0 then begin
          let cut = 1 + C.Drbg.uniform_int rng (min 24 len) in
          let fd = Unix.openfile journal [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (len - cut);
          Unix.close fd;
          Printf.printf "crashsoak: corrupted journal (tore %d tail bytes)\n%!"
            cut
        end
      with Unix.Unix_error _ | Sys_error _ -> ())
  | 1 -> flip_byte rng journal
  | _ -> (
      (* Append garbage after the last frame. *)
      try
        let n = 1 + C.Drbg.uniform_int rng 16 in
        let junk =
          String.init n (fun _ -> Char.chr (C.Drbg.uniform_int rng 256))
        in
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 journal
        in
        output_string oc junk;
        close_out oc;
        Printf.printf "crashsoak: corrupted journal (%d garbage bytes)\n%!" n
      with Sys_error _ -> ())

let run_crashsoak p kills dir_opt no_corrupt keep stats =
  if kills > p.p_epochs then begin
    Printf.eprintf "pvr crashsoak: --kills (%d) must be <= --epochs (%d)\n%!"
      kills p.p_epochs;
    2
  end
  else
    with_stats stats (fun () ->
        let dir =
          match dir_opt with
          | Some d -> d
          | None ->
              Filename.concat
                (Filename.get_temp_dir_name ())
                (Printf.sprintf "pvr-crashsoak-%d" (Unix.getpid ()))
        in
        Pvr_store.Store.reset ~dir;
        let sched = C.Drbg.split (C.Drbg.of_int_seed p.p_seed) "crashsoak" in
        let points =
          kill_schedule sched ~phases:(phases ~spill:(p.p_mem_ceiling > 0))
            ~epochs:p.p_epochs ~kills
        in
        Printf.printf "crashsoak: seed=%d dir=%s kill schedule: %s\n%!" p.p_seed
          dir
          (String.concat ", "
             (List.map (fun (e, ph) -> Printf.sprintf "%d/%s" e ph) points));
        let world = build_world p in
        (* Children fork with pristine copies of the world's DRBGs and churn
           state, so every restart replays the exact streams a fresh
           `pvr engine --seed S` would see.  The corrupt tails a child's
           resume drops die with its counters, so each child writes its
           [rs_dropped] down a pipe and the parent sums them. *)
        let dropped = ref 0 in
        let run_child point =
          flush stdout;
          flush stderr;
          let rd, wr = Unix.pipe () in
          match Unix.fork () with
          | 0 ->
              Unix.close rd;
              let on_resume rs =
                let line =
                  Printf.sprintf "%d\n" rs.Pvr_engine.Persist.rs_dropped
                in
                ignore (Unix.write_substring wr line 0 (String.length line))
              in
              let code =
                try
                  let on_phase =
                    match point with
                    | None -> fun ~epoch:_ (_ : string) -> ()
                    | Some (ke, kph) ->
                        fun ~epoch ph ->
                          if epoch = ke && ph = kph then
                            Unix.kill (Unix.getpid ()) Sys.sigkill
                  in
                  match
                    engine_core ~quiet:true ~on_phase ~on_resume
                      ~checkpoint_dir:dir ~resume:true ~fsync:true world p
                  with
                  | Ok (_, convicted) -> if convicted > 0 then 1 else 0
                  | Error _ -> 3
                with _ -> 125
              in
              Unix._exit code
          | pid ->
              Unix.close wr;
              let ic = Unix.in_channel_of_descr rd in
              let report = String.trim (In_channel.input_all ic) in
              close_in ic;
              Option.iter
                (fun n -> dropped := !dropped + n)
                (int_of_string_opt report);
              let _, status = Unix.waitpid [] pid in
              status
        in
        let code =
          try
            List.iteri
              (fun i (ke, kph) ->
                Printf.printf "crashsoak: run %d/%d — kill at epoch=%d phase=%s\n%!"
                  (i + 1) (kills + 1) ke kph;
                (match run_child (Some (ke, kph)) with
                | Unix.WSIGNALED s when s = Sys.sigkill -> ()
                | Unix.WEXITED 3 ->
                    Printf.eprintf "crashsoak: child found the store unrecoverable\n%!";
                    raise (Crashsoak_abort 3)
                | Unix.WEXITED c ->
                    Printf.printf
                      "crashsoak: child finished (exit %d) before its kill point\n%!"
                      c
                | Unix.WSIGNALED s | Unix.WSTOPPED s ->
                    Printf.eprintf "crashsoak: child died unexpectedly (signal %d)\n%!" s;
                    raise (Crashsoak_abort 3));
                if not no_corrupt then inject_corruption sched dir)
              points;
            Printf.printf "crashsoak: run %d/%d — final resume to completion\n%!"
              (kills + 1) (kills + 1);
            (match run_child None with
            | Unix.WEXITED 0 -> ()
            | Unix.WEXITED 1 -> raise (Crashsoak_abort 1)
            | _ -> raise (Crashsoak_abort 3));
            (* Recovered digest: the highest-epoch journal frame. *)
            let rc = Pvr_store.Store.recover ~quiet:true ~dir () in
            let final =
              List.fold_left
                (fun acc payload ->
                  match Pvr_engine.Persist.decode_epoch payload with
                  | Ok er -> (
                      match acc with
                      | Some best
                        when best.Pvr_engine.Persist.er_epoch >= er.er_epoch ->
                          acc
                      | _ -> Some er)
                  | Error _ -> acc)
                None rc.Pvr_store.Store.rc_frames
            in
            match final with
            | None ->
                Printf.eprintf "crashsoak: no recoverable final epoch in %s\n%!"
                  dir;
                3
            | Some er when er.Pvr_engine.Persist.er_epoch <> p.p_epochs ->
                Printf.eprintf
                  "crashsoak: recovered run stops at epoch %d, expected %d\n%!"
                  er.Pvr_engine.Persist.er_epoch p.p_epochs;
                3
            | Some er -> (
                (* Uninterrupted reference run, same seed, in-process. *)
                let world2 = build_world ~quiet:true p in
                match engine_core ~quiet:true world2 p with
                | Error e ->
                    Printf.eprintf "crashsoak: reference run failed: %s\n%!" e;
                    3
                | Ok (clean, _) ->
                    if clean = er.Pvr_engine.Persist.er_digest then begin
                      Printf.printf
                        "crashsoak: OK — digest %s identical after %d kills \
                         and resumes; %d corrupt frames dropped\n"
                        clean kills !dropped;
                      0
                    end
                    else begin
                      Printf.printf
                        "crashsoak: DIGEST DIVERGENCE recovered=%s clean=%s\n"
                        er.Pvr_engine.Persist.er_digest clean;
                      1
                    end)
          with Crashsoak_abort c -> c
        in
        if code = 0 && dir_opt = None && not keep then
          (try
             Array.iter
               (fun f -> Sys.remove (Filename.concat dir f))
               (Sys.readdir dir);
             Unix.rmdir dir
           with Sys_error _ | Unix.Unix_error _ -> ());
        code)

(* ---- adversary --------------------------------------------------------------

   The E14 surface as a command: run the strategy zoo over a generated
   power-law internet whose promises span the tiered /8–/16–/24 address
   plan, and print one deterministic matrix line per (strategy, prefix
   family).  Every round keeps a disclosure ledger, so the leakage audit
   covers honest plans too.  Exit 1 on any undetected cheat whose
   witnessing messages were delivered, any non-complying cheat not
   convicted, any convicted stonewalling-but-complying prover, or any
   honest vertex with excess bits. *)

type row = {
  mutable r_vertices : int;
  mutable r_cheats : int;
  mutable r_detected : int;
  mutable r_convicted : int;
  mutable r_leaked : int;
  mutable r_excess : int;
}

let family_lens = [ 8; 16; 24 ]

let resolve_strategies spec coalition =
  let override s =
    match (s, coalition) with
    | P.Adversary.Coalition { behaviour; _ }, Some size ->
        P.Adversary.Coalition { size; behaviour }
    | s, _ -> s
  in
  if spec = "all" then Ok (List.map override P.Adversary.all_strategies)
  else
    match P.Adversary.strategy_of_string spec with
    | Some s -> Ok [ override s ]
    | None -> Error spec

let run_adversary spec coalition seed ases epochs jobs bits stats =
  match resolve_strategies spec coalition with
  | Error s ->
      Printf.eprintf "pvr adversary: unknown strategy %S; one of: all, %s\n%!"
        s
        (String.concat ", "
           (List.map P.Adversary.strategy_to_string P.Adversary.all_strategies));
      2
  | Ok strategies ->
      with_stats stats @@ fun () ->
      let module E = Pvr_engine.Engine in
      let master = C.Drbg.of_int_seed seed in
      let topo =
        G.Topology.generate
          (C.Drbg.split master "topology")
          ~extra_peering:0.1 ~ases ()
      in
      let plan = G.Topology.tiered_prefixes topo in
      Printf.printf "Generating %d RSA-%d keys...\n%!" (G.Topology.size topo)
        bits;
      let keyring =
        P.Keyring.create ~bits (C.Drbg.split master "keys")
          (G.Topology.ases topo)
      in
      Printf.printf
        "adversary: seed=%d ases=%d links=%d epochs=%d prefixes=%d \
         strategies=%d\n%!"
        seed (G.Topology.size topo)
        (List.length (G.Topology.links topo))
        epochs (List.length plan) (List.length strategies);
      let violations = ref 0 in
      let violation fmt =
        Printf.ksprintf
          (fun msg ->
            incr violations;
            Printf.printf "VIOLATION %s\n" msg)
          fmt
      in
      List.iter
        (fun strategy ->
          let name = P.Adversary.strategy_to_string strategy in
          let complying =
            match strategy with
            | P.Adversary.Timing_probe _ -> true
            | _ -> false
          in
          let sim = G.Simulator.create topo in
          List.iter (fun (a, p) -> G.Simulator.originate sim ~asn:a p) plan;
          let eng =
            E.create ~jobs ~salt_every:1 ~strategy
              (C.Drbg.split master ("engine-" ^ name))
              keyring ~topology:topo ~sim ()
          in
          let rows = Hashtbl.create 4 in
          let row len =
            match Hashtbl.find_opt rows len with
            | Some r -> r
            | None ->
                let r =
                  {
                    r_vertices = 0;
                    r_cheats = 0;
                    r_detected = 0;
                    r_convicted = 0;
                    r_leaked = 0;
                    r_excess = 0;
                  }
                in
                Hashtbl.replace rows len r;
                r
          in
          for _ = 1 to epochs do
            let r = E.epoch eng in
            List.iter
              (fun o ->
                let len = o.E.vx_vertex.E.vprefix.G.Prefix.len in
                let vertex =
                  Printf.sprintf "%s %s"
                    (G.Asn.to_string o.E.vx_vertex.E.vprover)
                    (G.Prefix.to_string o.E.vx_vertex.E.vprefix)
                in
                let row = row len in
                row.r_vertices <- row.r_vertices + 1;
                row.r_leaked <- row.r_leaked + o.E.vx_leaked_bits;
                row.r_excess <- row.r_excess + o.E.vx_excess_bits;
                if o.E.vx_behaviour <> P.Adversary.Honest then begin
                  row.r_cheats <- row.r_cheats + 1;
                  if o.E.vx_detected then row.r_detected <- row.r_detected + 1;
                  if o.E.vx_convicted then
                    row.r_convicted <- row.r_convicted + 1;
                  let required = o.E.vx_required in
                  if required && not o.E.vx_detected then
                    violation "undetected cheat strategy=%s vertex=%s" name
                      vertex;
                  if complying then begin
                    if o.E.vx_convicted then
                      violation
                        "stonewalling-but-complying prover convicted \
                         strategy=%s vertex=%s"
                        name vertex
                  end
                  else if required && not o.E.vx_convicted then
                    violation "unconvicted cheat strategy=%s vertex=%s" name
                      vertex
                end
                else begin
                  if o.E.vx_convicted then
                    violation "honest prover convicted strategy=%s vertex=%s"
                      name vertex;
                  if o.E.vx_excess_bits > 0 then
                    violation
                      "honest vertex leaks %d excess bit(s) strategy=%s \
                       vertex=%s"
                      o.E.vx_excess_bits name vertex
                end)
              r.E.ep_outcomes
          done;
          List.iter
            (fun len ->
              match Hashtbl.find_opt rows len with
              | None -> ()
              | Some r ->
                  Printf.printf
                    "strategy=%-22s family=/%-2d vertices=%-3d cheats=%-3d \
                     detected=%-3d convicted=%-3d leaked_bits=%-5d \
                     excess_bits=%d\n"
                    name len r.r_vertices r.r_cheats r.r_detected
                    r.r_convicted r.r_leaked r.r_excess)
            family_lens;
          Printf.printf "strategy=%-22s digest=%s\n" name (E.digest eng))
        strategies;
      Printf.printf "adversary summary: violations=%d\n" !violations;
      if !violations > 0 then 1 else 0

(* ---- check ----------------------------------------------------------------- *)

let run_check file =
  let src = In_channel.with_open_text file In_channel.input_all in
  match R.Compiler.parse src with
  | Error e ->
      Format.eprintf "%s: %a@." file R.Compiler.pp_error e;
      1
  | Ok config ->
      Format.printf "parsed policy for %a: %d promises@." G.Asn.pp
        config.R.Compiler.owner
        (List.length config.R.Compiler.promises);
      let neighbors =
        (* All ASes mentioned in import blocks serve as the neighbor set. *)
        List.map fst config.R.Compiler.imports
      in
      List.iter
        (fun (beneficiary, promise, rfg) ->
          let issues =
            R.Static_check.implements rfg ~promise ~beneficiary ~neighbors
          in
          Format.printf "promise to %a (%s): %s@." G.Asn.pp beneficiary
            (R.Promise.describe promise)
            (if issues = [] then "OK"
             else
               String.concat "; "
                 (List.map
                    (Format.asprintf "%a" R.Static_check.pp_issue)
                    issues)))
        (R.Compiler.compile config ~neighbors);
      0

(* ---- topology --------------------------------------------------------------- *)

let run_topology tiers peering ases seed stats =
  with_stats stats @@ fun () ->
  let rng = C.Drbg.of_int_seed seed in
  let topo =
    if ases > 0 then G.Topology.generate rng ~extra_peering:peering ~ases ()
    else
      let tiers = List.map int_of_string (String.split_on_char ',' tiers) in
      G.Topology.hierarchy rng ~tiers ~extra_peering:peering
  in
  Printf.printf "topology: %d ASes, %d links\n" (G.Topology.size topo)
    (List.length (G.Topology.links topo));
  if ases > 0 then begin
    (* Tier histogram + the tier-sized address plan of the generated
       internet, then the usual convergence run. *)
    let tier_map = G.Topology.tiers topo in
    let hist = Hashtbl.create 8 in
    G.Asn.Map.iter
      (fun _ t ->
        Hashtbl.replace hist t
          (1 + Option.value (Hashtbl.find_opt hist t) ~default:0))
      tier_map;
    let tiers_sorted =
      Hashtbl.fold (fun t n acc -> (t, n) :: acc) hist []
      |> List.sort compare
    in
    List.iter
      (fun (t, n) -> Printf.printf "  tier %d: %d ASes\n" t n)
      tiers_sorted;
    let plan = G.Topology.tiered_prefixes topo in
    let count_len l =
      List.length
        (List.filter (fun (_, p) -> p.G.Prefix.len = l) plan)
    in
    Printf.printf "  address plan: %d /8 + %d /16 + %d /24\n" (count_len 8)
      (count_len 16) (count_len 24)
  end;
  let sim = G.Simulator.create topo in
  let prefix = G.Prefix.of_string "198.51.100.0/24" in
  let origin = asn (G.Topology.size topo) in
  G.Simulator.originate sim ~asn:origin prefix;
  let msgs = G.Simulator.run sim in
  let reached =
    List.length
      (List.filter
         (fun a -> G.Simulator.best_route sim ~asn:a prefix <> None)
         (G.Topology.ases topo))
  in
  Printf.printf "converged in %d messages; %d/%d ASes reach %s's prefix\n" msgs
    reached (G.Topology.size topo) (G.Asn.to_string origin);
  0

(* ---- primitives ------------------------------------------------------------- *)

let run_primitives bits stats =
  with_stats stats @@ fun () ->
  let rng = C.Drbg.of_int_seed 1 in
  Printf.printf "RSA-%d keygen...\n%!" bits;
  let key = C.Rsa.generate rng ~bits in
  let time_ms f =
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    while Unix.gettimeofday () -. t0 < 0.3 do
      ignore (f ());
      incr n
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int !n
  in
  Printf.printf "sha256 64B   : %.4f ms\n"
    (time_ms (fun () -> C.Sha256.digest (String.make 64 'x')));
  Printf.printf "rsa sign     : %.4f ms (paper, 2011: ~2 ms for RSA-1024)\n"
    (time_ms (fun () -> C.Rsa.sign key "payload"));
  let s = C.Rsa.sign key "payload" in
  Printf.printf "rsa verify   : %.4f ms\n"
    (time_ms (fun () -> C.Rsa.verify key.C.Rsa.pub ~msg:"payload" ~signature:s));
  0

(* ---- cmdliner wiring ----------------------------------------------------------- *)

open Cmdliner

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Collect pvr_obs metrics (crypto op counts, wire bytes, spans) \
           during the command and print the JSON snapshot on exit.")

let round_cmd =
  let behaviour =
    Arg.(
      value
      & opt behaviour_conv P.Adversary.Honest
      & info [ "behaviour"; "b" ] ~doc:"Prover behaviour.")
  in
  let k =
    Arg.(value & opt int 4 & info [ "k" ] ~doc:"Number of providers.")
  in
  let bits =
    Arg.(value & opt int 1024 & info [ "bits" ] ~doc:"RSA modulus size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"DRBG seed.") in
  let dump =
    Arg.(
      value & flag
      & info [ "dump-evidence" ]
          ~doc:"Print each piece of evidence in transportable hex form.")
  in
  Cmd.v
    (Cmd.info "round" ~doc:"Run one Figure-1 verification round")
    Term.(const run_round $ behaviour $ k $ bits $ seed $ dump $ stats_arg)

let soak_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master DRBG seed; the whole soak (keys, routes, fault schedules) and its output are a deterministic function of it.") in
  let rounds =
    Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"Rounds per behaviour.")
  in
  let k =
    Arg.(value & opt int 3 & info [ "k" ] ~doc:"Number of providers.")
  in
  let bits =
    Arg.(value & opt int 512 & info [ "bits" ] ~doc:"RSA modulus size.")
  in
  let drop =
    Arg.(value & opt float 0.15 & info [ "drop" ] ~doc:"Per-message drop probability.")
  in
  let duplicate =
    Arg.(value & opt float 0.05 & info [ "duplicate" ] ~doc:"Per-message duplication probability.")
  in
  let delay =
    Arg.(value & opt int 2 & info [ "delay" ] ~doc:"Maximum extra delivery delay in ticks.")
  in
  let reorder =
    Arg.(value & flag & info [ "reorder" ] ~doc:"Shuffle same-tick deliveries.")
  in
  let budget =
    Arg.(value & opt int 3 & info [ "budget" ] ~doc:"ARQ retransmissions / disclosure re-requests before a timeout accusation.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Adversarial soak over a fault-injected network: asserts Accuracy \
          (honest never convicted) and Detection (Byzantine behaviours \
          convicted whenever their witnessing messages were delivered); \
          exits non-zero on any violation.")
    Term.(
      const run_soak $ seed $ rounds $ k $ bits $ drop $ duplicate $ delay
      $ reorder $ budget $ stats_arg)

(* Engine/crashsoak share the run parameters: both must derive the exact
   same world from --seed for digests to be comparable. *)
let eparams_term =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Master DRBG seed.  The whole run — topology, keys, churn, salts \
             — and the final digest are a deterministic function of it, for \
             any $(b,--jobs) value and cache setting.")
  in
  let tiers =
    Arg.(value & opt string "1,2,4" & info [ "tiers" ] ~doc:"ASes per tier.")
  in
  let peering =
    Arg.(
      value & opt float 0.1
      & info [ "peering" ] ~doc:"Same-tier peering probability.")
  in
  let ases =
    Arg.(
      value & opt int 0
      & info [ "ases" ]
          ~doc:
            "Generate a seeded power-law (preferential-attachment) internet \
             of this many ASes instead of the $(b,--tiers) hierarchy.  0 \
             (default) keeps the hierarchy.")
  in
  let gen_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "gen-seed" ]
          ~doc:
            "Dedicated seed for $(b,--ases) topology generation — the same \
             internet under different run seeds.  Defaults to deriving the \
             topology from $(b,--seed).")
  in
  let epochs =
    Arg.(value & opt int 5 & info [ "epochs" ] ~doc:"Verification epochs.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~doc:"Worker domains for verification rounds.")
  in
  let bits =
    Arg.(value & opt int 512 & info [ "bits" ] ~doc:"RSA modulus size.")
  in
  let cache =
    Arg.(
      value & opt bool true
      & info [ "cache" ]
          ~doc:
            "Incremental mode: skip clean vertices and memoize \
             commitments/signatures within a salt period.  $(b,--cache \
             false) recomputes everything every epoch (the E11 baseline).")
  in
  let salt_every =
    Arg.(
      value & opt int 8
      & info [ "salt-every" ] ~doc:"Epochs per commitment-salt period.")
  in
  let turnover =
    Arg.(
      value & opt float 0.2
      & info [ "turnover" ]
          ~doc:"Fraction of churn slots flipped per epoch (0..1).")
  in
  let origins =
    Arg.(
      value & opt int 4 & info [ "origins" ] ~doc:"Churn origin ASes (bottom tier).")
  in
  let prefixes_per_origin =
    Arg.(
      value & opt int 2
      & info [ "prefixes-per-origin" ] ~doc:"Churn prefixes per origin.")
  in
  let anycast =
    Arg.(
      value & opt int 1
      & info [ "anycast" ]
          ~doc:
            "Churn prefixes announced by two origins each (partial route \
             churn on live prefixes).")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ]
          ~doc:
            "Per-message drop probability; non-zero routes every round \
             through the fault-injected network.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv (P.Adversary.Sweep P.Adversary.Honest)
      & info [ "strategy" ]
          ~doc:
            "Adversary strategy planning per-vertex behaviours (default \
             honest).  Canonical names: honest, coalition-false-bits, \
             cross-shard-equivocate, adaptive-low-value, timing-probe; any \
             single behaviour name (e.g. equivocate) selects a sweep of \
             it.")
  in
  let mem_ceiling =
    Arg.(
      value & opt int 0
      & info [ "mem-ceiling" ] ~docv:"WORDS"
          ~doc:
            "Major-heap budget in words (the figure \
             $(b,engine.gc.heap_words) exports).  When the post-epoch heap \
             exceeds it the governor spills the vertex state not \
             recomputed this epoch to the store as CRC-framed journal \
             pages (the $(b,--checkpoint) store when given, else a \
             scratch store under the temp dir), then the rest if the heap \
             is still over — all digest-invariant.  0 (default) is \
             unbounded.")
  in
  let make p_seed p_tiers p_peering p_ases p_gen_seed p_epochs p_jobs p_bits
      p_cache p_salt_every p_turnover p_origins p_ppo p_anycast p_drop
      p_strategy p_mem_ceiling =
    {
      p_seed;
      p_tiers;
      p_peering;
      p_ases;
      p_gen_seed;
      p_epochs;
      p_jobs;
      p_intern = false;
      p_bits;
      p_cache;
      p_salt_every;
      p_turnover;
      p_origins;
      p_ppo;
      p_anycast;
      p_drop;
      p_strategy;
      p_mem_ceiling;
    }
  in
  Term.(
    const make $ seed $ tiers $ peering $ ases $ gen_seed $ epochs $ jobs
    $ bits $ cache $ salt_every $ turnover $ origins $ prefixes_per_origin
    $ anycast $ drop $ strategy $ mem_ceiling)

let engine_cmd =
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Durable store directory: journal every epoch into \
             $(docv)/journal.pvrj, the store's only file.  Without \
             $(b,--resume) any existing journal in $(docv) is reset.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover the journal in $(b,--checkpoint) (truncating torn \
             frames), replay the churn to its newest epoch record and \
             continue from there.  Exits 3 when the store belongs to a \
             different run or cannot be validated.")
  in
  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:
            "Skip the fsync barrier on journal appends (framing and \
             recovery still work; durability is best-effort).")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Atomically write a one-line JSON run report (seed, epochs, \
             convictions, digest) to $(docv).")
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Continuously verify every promising AS of a churning topology \
          with the incremental multi-domain engine; exits non-zero if any \
          honest prover is convicted.  With --checkpoint/--resume the run \
          is crash-tolerant: it journals every epoch and can continue \
          after being killed, reproducing the exact digest of an \
          uninterrupted run.")
    Term.(
      const run_engine $ eparams_term $ checkpoint $ resume $ no_fsync
      $ report $ stats_arg)

let crashsoak_cmd =
  let kills =
    Arg.(
      value & opt int 3
      & info [ "kills" ]
          ~doc:
            "Distinct seeded kill points (epoch, phase); must not exceed \
             $(b,--epochs).")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Store directory (default: a fresh directory under the system \
             temp dir, removed on success).")
  in
  let no_corrupt =
    Arg.(
      value & flag
      & info [ "no-corrupt" ]
          ~doc:"Do not inject store corruption between restarts.")
  in
  let keep =
    Arg.(
      value & flag
      & info [ "keep" ] ~doc:"Keep the store directory even on success.")
  in
  Cmd.v
    (Cmd.info "crashsoak"
       ~doc:
         "Crash-recovery soak: fork the checkpointed engine, SIGKILL it at \
          seeded mid-epoch points, corrupt the store between restarts, \
          resume, and require the recovered digest to be byte-identical to \
          an uninterrupted run.  Exits 1 on digest divergence, 3 on an \
          unrecoverable store.")
    Term.(
      const run_crashsoak $ eparams_term $ kills $ dir $ no_corrupt $ keep
      $ stats_arg)

let check_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and statically check a policy file")
    Term.(const run_check $ file)

let topology_cmd =
  let tiers =
    Arg.(value & opt string "2,4,8" & info [ "tiers" ] ~doc:"ASes per tier.")
  in
  let peering =
    Arg.(value & opt float 0.1 & info [ "peering" ] ~doc:"Same-tier peering probability.")
  in
  let ases =
    Arg.(
      value & opt int 0
      & info [ "ases" ]
          ~doc:
            "Generate a power-law internet of this many ASes (tier \
             histogram and address plan included) instead of the \
             $(b,--tiers) hierarchy.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"DRBG seed.") in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate a topology and run BGP to convergence")
    Term.(const run_topology $ tiers $ peering $ ases $ seed $ stats_arg)

let adversary_cmd =
  let strategy =
    Arg.(
      value & opt string "all"
      & info [ "strategy" ]
          ~doc:
            "Adversary strategy, or $(b,all) for the whole zoo.  Canonical \
             names: honest, coalition-false-bits, cross-shard-equivocate, \
             adaptive-low-value, timing-probe; any single behaviour name \
             (e.g. equivocate) selects a sweep of it.")
  in
  let coalition =
    Arg.(
      value & opt (some int) None
      & info [ "coalition" ]
          ~doc:"Override the coalition size of coalition strategies.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ]
          ~doc:
            "Master DRBG seed; the topology, keys, per-vertex plans and \
             every printed matrix line are a deterministic function of it.")
  in
  let ases =
    Arg.(
      value & opt int 16
      & info [ "ases" ] ~doc:"Power-law internet size (ASes).")
  in
  let epochs =
    Arg.(value & opt int 2 & info [ "epochs" ] ~doc:"Verification epochs.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~doc:"Worker domains.")
  in
  let bits =
    Arg.(value & opt int 512 & info [ "bits" ] ~doc:"RSA modulus size.")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:
         "Run the adversary strategy zoo and print the E14 detection/leakage \
          matrix")
    Term.(
      const run_adversary $ strategy $ coalition $ seed $ ases $ epochs $ jobs
      $ bits $ stats_arg)

(* ---- query ---------------------------------------------------------------- *)

(* Indexed audit queries over a checkpointed engine run's evidence plane.
   Exit codes follow the house contract: 0 rows returned (possibly none),
   2 query parse error, 3 missing/unreadable store. *)
let run_query qtext store_dir viewer json explain stats =
  with_stats stats (fun () ->
      match Pvr_query.Lang.parse qtext with
      | Error e ->
          Printf.eprintf "pvr query: syntax error\n%s\n%!"
            (Pvr_query.Lang.render_error ~query:qtext e);
          2
      | Ok q -> (
          match Pvr_query.Evidence_index.build ~dir:store_dir () with
          | Error e ->
              Printf.eprintf "pvr query: %s\n%!" e;
              3
          | Ok idx ->
              let viewer = asn viewer in
              let res = Pvr_query.Exec.run idx ~viewer q in
              if explain then
                Printf.eprintf "%s\n%!"
                  (Pvr_query.Exec.explain res.Pvr_query.Exec.qr_plan);
              if json then
                print_endline (Pvr_query.Exec.render_json ~query:q ~viewer res)
              else print_string (Pvr_query.Exec.render_text ~viewer res);
              0))

let query_cmd =
  let qtext =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "Query text, e.g. 'violations where prefix in 10.0.0.0/8 and \
             epoch > 40 order by epoch limit 20'.")
  in
  let store =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Checkpoint store of an engine run ($(b,pvr engine --checkpoint \
             DIR)) to query.")
  in
  let viewer =
    Arg.(
      value & opt int 0
      & info [ "viewer" ] ~docv:"ASN"
          ~doc:
            "Execute as this viewer AS: rows the α map does not authorize \
             it to see are withheld (and accounted as refusals).  0 \
             (default) is the court pseudo-viewer, which sees everything.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable single-line JSON on stdout instead of a \
             table; byte-identical for identical results (the crash-smoke \
             diffs live vs recovered output).")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the chosen access path and every considered \
             alternative with costs, on stderr.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run an indexed audit query over the evidence plane of a \
          checkpointed engine run")
    Term.(
      const run_query $ qtext $ store $ viewer $ json $ explain $ stats_arg)

let primitives_cmd =
  let bits =
    Arg.(value & opt int 1024 & info [ "bits" ] ~doc:"RSA modulus size.")
  in
  Cmd.v
    (Cmd.info "primitives" ~doc:"Time the §3.8 crypto primitives")
    Term.(const run_primitives $ bits $ stats_arg)

(* ---- serve / drive ----------------------------------------------------------- *)

(* `pvr serve` is the RVaaS deployment shape: a long-lived daemon
   multiplexing concurrent prover sessions onto the engine's worker-domain
   pool, streaming per-epoch verdicts over length-framed sockets with
   bounded-queue backpressure.  `pvr drive` is its batch client — N
   concurrent seeded sessions, one digest line each — used by the
   serve-smoke CI job and the E17 bench. *)

let parse_listen socket tcp =
  match (socket, tcp) with
  | Some path, None -> Ok (Pvr_serve.Server.Unix_sock path)
  | None, Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
          let host = String.sub spec 0 i in
          let host = if host = "" then "127.0.0.1" else host in
          match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
          | Some port -> Ok (Pvr_serve.Server.Tcp (host, port))
          | None -> Error "invalid --tcp PORT")
      | None -> (
          match int_of_string_opt spec with
          | Some port -> Ok (Pvr_serve.Server.Tcp ("127.0.0.1", port))
          | None -> Error "invalid --tcp spec (HOST:PORT or PORT)"))
  | None, None -> Error "one of --socket PATH or --tcp HOST:PORT is required"
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"

let run_serve socket tcp workers queue_cap store stats =
  with_stats stats (fun () ->
      match parse_listen socket tcp with
      | Error msg ->
          Printf.eprintf "pvr serve: %s\n%!" msg;
          2
      | Ok listen ->
          let cfg =
            {
              Pvr_serve.Server.listen;
              workers;
              queue_cap;
              store_dir = store;
              quiet = false;
            }
          in
          let srv = Pvr_serve.Server.start cfg in
          let drain _ = Pvr_serve.Server.initiate_shutdown srv in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
          Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
          Pvr_serve.Server.wait srv;
          0)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Listen on TCP instead.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ]
          ~doc:"Worker domains executing session verification (capped at 16).")
  in
  let queue_cap =
    Arg.(
      value & opt int 8
      & info [ "queue-cap" ]
          ~doc:
            "Bounded admission queue: beyond one item per worker, at most \
             this many accepted work items may wait; further requests are \
             refused with Busy immediately (explicit backpressure, never \
             unbounded buffering).")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Evidence store served to query requests (the pvr query \
             language over the wire).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived verification daemon: multiplex concurrent prover \
          sessions onto the engine's worker-domain pool, streaming \
          per-epoch verdicts over length-framed sockets.  SIGTERM/SIGINT \
          drain in-flight sessions cleanly before exit.")
    Term.(const run_serve $ socket $ tcp $ workers $ queue_cap $ store $ stats_arg)

let run_drive socket tcp sessions p stats =
  with_stats stats (fun () ->
      match parse_listen socket tcp with
      | Error msg ->
          Printf.eprintf "pvr drive: %s\n%!" msg;
          2
      | Ok listen ->
          let results = Array.make sessions (Error "not run") in
          let drive_one i =
            let params = { p with p_seed = p.p_seed + i } in
            match Pvr_serve.Client.connect listen with
            | exception Unix.Unix_error (e, _, _) ->
                results.(i) <- Error ("connect: " ^ Unix.error_message e)
            | cl ->
                Fun.protect
                  ~finally:(fun () -> Pvr_serve.Client.close cl)
                  (fun () ->
                    (* Busy is backpressure, not failure: retry with a
                       small delay until the daemon admits the run. *)
                    let rec admitted tries =
                      match Pvr_serve.Client.open_session cl params with
                      | Ok id -> Ok id
                      | Error "busy" when tries < 400 ->
                          Unix.sleepf 0.05;
                          admitted (tries + 1)
                      | Error e -> Error e
                    in
                    let rec run_retry id tries =
                      match Pvr_serve.Client.run_epochs cl id with
                      | Error "busy" when tries < 400 ->
                          Unix.sleepf 0.05;
                          run_retry id (tries + 1)
                      | r -> r
                    in
                    results.(i) <-
                      (match admitted 0 with
                      | Error e -> Error e
                      | Ok id -> run_retry id 0))
          in
          let threads = Array.init sessions (fun i -> Thread.create drive_one i) in
          Array.iter Thread.join threads;
          let failed = ref 0 and convicted = ref 0 in
          Array.iteri
            (fun i r ->
              match r with
              | Ok (digest, conv) ->
                  convicted := !convicted + conv;
                  Printf.printf "session %d seed=%d digest=%s convicted=%d\n" i
                    (p.p_seed + i) digest conv
              | Error e ->
                  incr failed;
                  Printf.printf "session %d seed=%d ERROR %s\n" i (p.p_seed + i) e)
            results;
          (* The daemon's world cache since it started: a session whose
             seed, topology and key size it has seen skips key generation. *)
          (match Pvr_serve.Client.connect listen with
          | exception Unix.Unix_error _ -> ()
          | cl -> (
              Fun.protect ~finally:(fun () -> Pvr_serve.Client.close cl)
              @@ fun () ->
              match Pvr_serve.Client.stats cl with
              | Ok st ->
                  let looked = st.st_world_hits + st.st_world_misses in
                  Printf.printf "daemon: sha256 accelerated=%b\n"
                    st.st_sha256_accelerated;
                  Printf.printf
                    "world cache: hits=%d misses=%d keys=%d hit_ratio=%.2f\n"
                    st.st_world_hits st.st_world_misses st.st_world_keys
                    (if looked = 0 then 0.0
                     else float_of_int st.st_world_hits /. float_of_int looked)
              | Error e -> Printf.eprintf "pvr drive: stats: %s\n%!" e));
          if !failed > 0 then 3 else if !convicted > 0 then 1 else 0)

let drive_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket to connect to.")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Daemon TCP address to connect to.")
  in
  let sessions =
    Arg.(
      value & opt int 3
      & info [ "sessions" ]
          ~doc:
            "Concurrent sessions to drive; session $(i,i) runs the \
             engine workload with seed $(b,--seed)+$(i,i).")
  in
  Cmd.v
    (Cmd.info "drive"
       ~doc:
         "Drive N concurrent seeded sessions against a running pvr serve \
          daemon and print one digest line per session — the digests \
          match batch `pvr engine` runs of the same seeds exactly.")
    Term.(const run_drive $ socket $ tcp $ sessions $ eparams_term $ stats_arg)

let () =
  let info =
    Cmd.info "pvr" ~version:"1.0.0"
      ~doc:"Private and verifiable interdomain routing (HotNets-X 2011)"
  in
  let group =
    Cmd.group info
      [
        round_cmd;
        soak_cmd;
        engine_cmd;
        crashsoak_cmd;
        adversary_cmd;
        query_cmd;
        serve_cmd;
        drive_cmd;
        check_cmd;
        topology_cmd;
        primitives_cmd;
      ]
  in
  (* Uniform exit codes: 0 success, 1 property violation, 2 usage error,
     3 unrecoverable store, 125 internal error. *)
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Error `Parse | Error `Term -> 2
    | Error `Exn -> 125)
