(* Deterministic engine workloads, factored out of the CLI so that batch
   runs (`pvr engine`, `pvr crashsoak`) and daemon sessions (`pvr serve`)
   construct byte-identical worlds from the same parameters: the
   serve-vs-batch digest differential holds by construction because both
   call exactly this code. *)

module P = Pvr
module G = Pvr_bgp
module C = Pvr_crypto

type params = {
  p_seed : int;
  p_tiers : string;
  p_peering : float;
  p_ases : int; (* > 0: power-law generated topology instead of tiers *)
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
  p_mem_ceiling : int;
      (* major-heap budget in words; 0 = unbounded, else cold vertex state
         spills through the store *)
}

(* Mirrors the CLI's flag defaults, so a request that omits overrides runs
   the same workload `pvr engine` runs with no flags. *)
let defaults =
  {
    p_seed = 42;
    p_tiers = "1,2,4";
    p_peering = 0.1;
    p_ases = 0;
    p_gen_seed = None;
    p_epochs = 5;
    p_jobs = 1;
    p_intern = false;
    p_bits = 512;
    p_cache = true;
    p_salt_every = 8;
    p_turnover = 0.2;
    p_origins = 4;
    p_ppo = 2;
    p_anycast = 1;
    p_drop = 0.0;
    p_strategy = P.Adversary.Sweep P.Adversary.Honest;
    p_mem_ceiling = 0;
  }

type world = {
  w_topo : G.Topology.t;
  w_keyring : P.Keyring.t;
  w_churn : G.Update_gen.Churn.t;
  w_churn_rng : C.Drbg.t;
  w_engine_rng : C.Drbg.t;
}

(* The params fields that decide a world's topology and keys, and nothing
   else: two params with equal keys build equal topologies and keyrings.
   It lives next to [build_world] so that a field [build_world] starts
   reading for either part cannot be missed here. *)
type world_key = {
  k_seed : int;
  k_tiers : string;
  k_peering : float;
  k_ases : int;
  k_gen_seed : int option;
  k_bits : int;
}

let world_key p =
  {
    k_seed = p.p_seed;
    k_tiers = p.p_tiers;
    k_peering = p.p_peering;
    k_ases = p.p_ases;
    k_gen_seed = p.p_gen_seed;
    k_bits = p.p_bits;
  }

type cache =
  world_key -> (unit -> G.Topology.t * P.Keyring.t) -> G.Topology.t * P.Keyring.t

(* Deterministic world construction.  The split order on the master DRBG —
   "topology" (unless --gen-seed seeds a generated topology), "keys",
   "churn", "engine" — is part of the on-disk contract: a resumed run
   replays the same streams, so it must never change.  Every split is made
   on every call; a [cache] may only stand in for the topology and key
   generation that consume the first two streams. *)
let build_world ?(quiet = false) ?(cache : cache option) p =
  let master = C.Drbg.of_int_seed p.p_seed in
  (* Power-law internet: --gen-seed decouples the topology from the run
     seed (same internet, different salts/churn); without it the topology
     comes from the master stream like the hierarchy does. *)
  let topo_rng =
    match p.p_gen_seed with
    | Some s when p.p_ases > 0 -> C.Drbg.of_int_seed s
    | _ -> C.Drbg.split master "topology"
  in
  let keys_rng = C.Drbg.split master "keys" in
  let announced = ref false in
  let announce topo =
    announced := true;
    if not quiet then
      Printf.printf
        "engine: %d ASes, %d links; seed=%d epochs=%d jobs=%d cache=%b \
         salt_every=%d turnover=%.2f\n%!"
        (G.Topology.size topo)
        (List.length (G.Topology.links topo))
        p.p_seed p.p_epochs p.p_jobs p.p_cache p.p_salt_every p.p_turnover
  in
  let generate () =
    let topo =
      if p.p_ases > 0 then
        G.Topology.generate topo_rng ~extra_peering:p.p_peering ~ases:p.p_ases ()
      else
        let tiers =
          List.map int_of_string (String.split_on_char ',' p.p_tiers)
        in
        G.Topology.hierarchy topo_rng ~tiers ~extra_peering:p.p_peering
    in
    let ases = G.Topology.ases topo in
    announce topo;
    if not quiet then
      Printf.printf "Generating %d RSA-%d keys...\n%!" (List.length ases)
        p.p_bits;
    (topo, P.Keyring.create ~bits:p.p_bits keys_rng ases)
  in
  let topo, keyring =
    match cache with
    | None -> generate ()
    | Some cache -> cache (world_key p) generate
  in
  if not !announced then announce topo;
  let ases = G.Topology.ases topo in
  (* Churn origins: the highest-numbered (bottom-tier) ASes. *)
  let origin_list =
    let sorted = List.sort (fun a b -> G.Asn.compare b a) ases in
    List.filteri (fun i _ -> i < p.p_origins) sorted |> List.rev
  in
  let churn =
    G.Update_gen.Churn.create ~anycast:p.p_anycast ~origins:origin_list
      ~prefixes_per_origin:p.p_ppo ()
  in
  let churn_rng = C.Drbg.split master "churn" in
  let engine_rng = C.Drbg.split master "engine" in
  {
    w_topo = topo;
    w_keyring = keyring;
    w_churn = churn;
    w_churn_rng = churn_rng;
    w_engine_rng = engine_rng;
  }

let scratch_seq = Atomic.make 0

(* One engine run over a pre-built world.  [on_phase ~epoch phase] fires at
   the epoch's internal barriers ("apply"/"collect"/"verify") and after the
   journal write ("record") — the crash-soak kill hook.  [on_report] fires
   once per completed epoch with its report — the serve daemon streams a
   verdict frame from it.  [on_resume] fires after a resume recovered the
   store.  Returns the final digest and total convictions, or [Error] when
   the checkpoint store is unrecoverable. *)
let engine_core ?(quiet = false) ?(on_phase = fun ~epoch:_ (_ : string) -> ())
    ?(on_report = fun (_ : Pvr_engine.Engine.epoch_report) -> ())
    ?(on_resume = fun (_ : Pvr_engine.Persist.resumed) -> ())
    ?checkpoint_dir ?(resume = false) ?(fsync = true) world p =
  let sim = G.Simulator.create world.w_topo in
  let faults =
    if p.p_drop > 0.0 then
      Some
        {
          P.Runner.perfect_faults with
          fp_policy = Pvr_net.faulty ~drop:p.p_drop ();
        }
    else None
  in
  let eng =
    Pvr_engine.Engine.create ~jobs:p.p_jobs ~cache:p.p_cache
      ~salt_every:p.p_salt_every ~strategy:p.p_strategy ?faults
      world.w_engine_rng world.w_keyring ~topology:world.w_topo ~sim ()
  in
  let apply ~epoch sim =
    if epoch = 1 then List.length (G.Update_gen.Churn.seed world.w_churn sim)
    else
      List.length
        (G.Update_gen.Churn.step world.w_churn_rng ~turnover:p.p_turnover
           world.w_churn sim)
  in
  let start =
    match checkpoint_dir with
    | None -> Ok 0
    | Some dir ->
        if resume then
          match Pvr_engine.Persist.resume ~quiet ~dir ~engine:eng ~apply () with
          | Ok rs ->
              on_resume rs;
              if not quiet then
                Printf.printf "resumed: epoch=%d replayed=%d dropped=%d\n%!"
                  rs.Pvr_engine.Persist.rs_epoch rs.rs_replayed rs.rs_dropped;
              Ok rs.Pvr_engine.Persist.rs_epoch
          | Error e -> Error e
        else begin
          Pvr_store.Store.reset ~dir;
          Ok 0
        end
  in
  match start with
  | Error e -> Error e
  | Ok start ->
      let spill = p.p_mem_ceiling > 0 in
      let session =
        Option.map (fun dir -> Pvr_engine.Persist.start ~fsync ~dir ())
          checkpoint_dir
      in
      (* Spilling without a checkpoint dir still needs a WAL to page into:
         a scratch store under the temp dir, removed when the run ends.
         The name carries a process-wide sequence number because the
         serve daemon can run several spilling sessions concurrently in
         one process. *)
      let scratch_dir =
        if spill && session = None then
          Some
            (Filename.concat
               (Filename.get_temp_dir_name ())
               (Printf.sprintf "pvr-spill-%d-%d" (Unix.getpid ())
                  (Atomic.fetch_and_add scratch_seq 1)))
        else None
      in
      let scratch =
        Option.map
          (fun dir ->
            Pvr_store.Store.reset ~dir;
            Pvr_engine.Persist.start ~fsync:false ~dir ())
          scratch_dir
      in
      Pvr_engine.Engine.set_mem_ceiling eng p.p_mem_ceiling;
      if spill then begin
        let s =
          match session with Some s -> s | None -> Option.get scratch
        in
        Pvr_engine.Engine.set_pager eng
          (Some
             (Pvr_engine.Persist.pager s
                ~run_id:(Pvr_engine.Engine.Checkpoint.run_id eng)))
      end;
      let convicted = ref 0 in
      Fun.protect
        ~finally:(fun () ->
          Option.iter Pvr_engine.Persist.close session;
          Option.iter Pvr_engine.Persist.close scratch;
          Option.iter
            (fun dir ->
              try
                Array.iter
                  (fun f -> Sys.remove (Filename.concat dir f))
                  (Sys.readdir dir);
                Unix.rmdir dir
              with Sys_error _ | Unix.Unix_error _ -> ())
            scratch_dir)
        (fun () ->
          for i = start + 1 to p.p_epochs do
            let r =
              Pvr_engine.Engine.epoch ~apply:(apply ~epoch:i)
                ~on_phase:(fun ph -> on_phase ~epoch:i ph)
                eng
            in
            if not quiet then print_endline (Pvr_engine.Engine.report_line r);
            Option.iter
              (fun s ->
                Pvr_engine.Persist.record s eng r;
                on_phase ~epoch:i "record")
              session;
            on_report r;
            convicted := !convicted + r.Pvr_engine.Engine.ep_convicted
          done);
      Ok (Pvr_engine.Engine.digest eng, !convicted)
