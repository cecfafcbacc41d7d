(* Battery for the `pvr serve` daemon (PR 10): session isolation, explicit
   backpressure, drain-on-shutdown, crash-resilience against vanished
   clients, and — the anchor — the serve-vs-batch digest differential:
   a session streamed over the wire must reproduce, byte for byte, the
   digests of a batch `pvr engine` run of the same parameters.

   Most tests run an in-process daemon on a throwaway Unix socket, and
   the digest differential and the vanished-client test run over TCP as
   well (an in-process SIGTERM would kill the test runner); the
   real-signal drain contract is exercised against a forked `pvr serve`
   CLI process. *)

module S = Pvr_serve.Server
module Cl = Pvr_serve.Client
module Pr = Pvr_serve.Protocol
module W = Pvr_serve.Workload
module Pool = Pvr_engine.Pool
module Obs = Pvr_obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let sock_seq = ref 0

let fresh_sock () =
  incr sock_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pvr-serve-test-%d-%d.sock" (Unix.getpid ()) !sock_seq)

(* A loopback TCP address on a port the kernel just reported free. *)
let fresh_tcp () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | ADDR_INET (_, port) -> S.Tcp ("127.0.0.1", port)
  | ADDR_UNIX _ -> assert false

let with_server ?(listen = S.Unix_sock (fresh_sock ())) ?(workers = 2)
    ?(queue_cap = 8) ?store_dir f =
  let t =
    S.start { (S.default_config listen) with workers; queue_cap; store_dir }
  in
  Fun.protect
    ~finally:(fun () ->
      (try S.stop t with _ -> ());
      match listen with
      | S.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | S.Tcp _ -> ())
    (fun () -> f listen t)

(* A session small enough to run many times: 3 ASes, 2 origins, RSA-512. *)
let params ?(epochs = 2) seed =
  { W.defaults with W.p_seed = seed; p_tiers = "1,2"; p_origins = 2; p_epochs = epochs }

let batch_digest p =
  let w = W.build_world ~quiet:true p in
  match W.engine_core ~quiet:true w p with
  | Ok (digest, convicted) -> (digest, convicted)
  | Error e -> Alcotest.fail ("batch run failed: " ^ e)

let open_session c p =
  match Cl.open_session c p with
  | Error e -> Alcotest.fail ("open_session: " ^ e)
  | Ok id -> id

let run_session ?on_verdict c id =
  match Cl.run_epochs ?on_verdict c id with
  | Ok (digest, convicted) -> (digest, convicted)
  | Error e -> Alcotest.fail ("run_epochs: " ^ e)

let session_digest ?on_verdict c p = run_session ?on_verdict c (open_session c p)

(* Raw protocol access, for tests that must hang up mid-stream. *)
let raw_connect listen =
  let fd, addr =
    match listen with
    | S.Unix_sock path -> (Unix.socket PF_UNIX SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | S.Tcp (host, port) ->
        ( Unix.socket PF_INET SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, port) )
  in
  Unix.connect fd addr;
  fd

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let poll ?(timeout = 10.0) ~what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* ---- basics ------------------------------------------------------------------------ *)

let ping_stats_and_errors () =
  with_server @@ fun listen t ->
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  check_bool "ping" true (Cl.ping c);
  (match Cl.stats c with
  | Ok st ->
      check_bool "draining off" false st.Pr.st_draining;
      check_bool "names the SHA-256 kernel" Pvr_crypto.Sha256.accelerated
        st.Pr.st_sha256_accelerated;
      check_int "queue cap" 8 st.Pr.st_queue_cap;
      check_bool "workers sized" true (st.Pr.st_workers >= 1);
      check_int "no inflight" 0 st.Pr.st_inflight
  | Error e -> Alcotest.fail e);
  (match Cl.run_epochs c 999 with
  | Error e -> check_string "unknown session" "unknown session" e
  | Ok _ -> Alcotest.fail "phantom session ran");
  (match Cl.query c "evidence where epoch = 1" with
  | Error e ->
      check_bool "query without store names the flag" true (contains e "store")
  | Ok _ -> Alcotest.fail "query must fail with no store attached");
  ignore (S.stats t : Pr.stats_reply)

(* ---- serve-vs-batch differential -------------------------------------------------- *)

(* Run twice, the same session streams the batch digests both times:
   every run builds its world afresh. *)
let serve_matches_batch ?listen () =
  let p = params 42 in
  let want, want_conv = batch_digest p in
  with_server ?listen @@ fun listen _t ->
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let id = open_session c p in
  List.iter
    (fun run ->
      let verdicts = ref [] in
      let got, conv =
        run_session ~on_verdict:(fun v -> verdicts := v :: !verdicts) c id
      in
      check_string (run ^ ": final digest matches batch") want got;
      check_int (run ^ ": convictions match batch") want_conv conv;
      let vs = List.rev !verdicts in
      check_int (run ^ ": one verdict per epoch") p.W.p_epochs (List.length vs);
      List.iteri
        (fun i v -> check_int (run ^ ": epochs in order") (i + 1) v.Pr.v_epoch)
        vs;
      (* The stream's last running digest is the terminal digest: the hash
         chain the client watched is the one the daemon committed to. *)
      check_string (run ^ ": last verdict digest is terminal") got
        (List.nth vs (List.length vs - 1)).Pr.v_digest)
    [ "first run"; "second run" ]

(* ---- sessions belong to their connection ------------------------------------------ *)

(* Another connection can neither run nor close a session: its id is
   unknown there, and the owner's session is untouched. *)
let sessions_belong_to_connection () =
  let p = params 43 in
  let want, _ = batch_digest p in
  with_server @@ fun listen t ->
  let a = Cl.connect listen and b = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close a; Cl.close b) @@ fun () ->
  let id = open_session a p in
  (match Cl.run_epochs b id with
  | Error e -> check_string "foreign run refused" "unknown session" e
  | Ok _ -> Alcotest.fail "a foreign connection ran the session");
  (match Cl.close_session b id with
  | Error e -> check_string "foreign close refused" "unknown session" e
  | Ok () -> Alcotest.fail "a foreign connection closed the session");
  check_int "the session is still open" 1 (S.stats t).Pr.st_sessions;
  check_string "the owner's run = batch" want (fst (run_session a id));
  (match Cl.close_session a id with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("owner's close: " ^ e));
  check_int "the owner closed it" 0 (S.stats t).Pr.st_sessions

(* ---- concurrent sessions are isolated --------------------------------------------- *)

(* Four sessions run at once on two workers: each session's digest is its
   batch run's. *)
let concurrent_sessions_isolated () =
  let seeds = [| 50; 51; 52; 53 |] in
  let ps = Array.map params seeds in
  let want = Array.map (fun p -> fst (batch_digest p)) ps in
  with_server ~workers:2 @@ fun listen _t ->
  let got = Array.make (Array.length seeds) (Error "never ran") in
  let threads =
    Array.mapi
      (fun i p ->
        Thread.create
          (fun () ->
            let c = Cl.connect listen in
            Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
            match Cl.open_session c p with
            | Error e -> got.(i) <- Error e
            | Ok id -> got.(i) <- (
                match Cl.run_epochs c id with
                | Ok (d, _) -> Ok d
                | Error e -> Error e))
          ())
      ps
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Error e -> Alcotest.fail (Printf.sprintf "session %d: %s" i e)
      | Ok d ->
          check_string
            (Printf.sprintf "session %d matches its batch digest" i)
            want.(i) d)
    got;
  (* Different seeds must not bleed into each other. *)
  check_bool "digests differ across seeds" true
    (want.(0) <> want.(1) && want.(1) <> want.(2) && want.(2) <> want.(3))

(* ---- world cache ------------------------------------------------------------------ *)

let world_stats c =
  match Cl.stats c with
  | Ok st -> (st.Pr.st_world_hits, st.Pr.st_world_misses)
  | Error e -> Alcotest.fail ("stats: " ^ e)

(* Sessions whose topology and keyring come from the daemon's world cache
   must stream the digests of a fresh batch world: a hit re-derives the
   churn and engine DRBGs exactly as a build does, concurrent hits share
   one keyring across worker domains, and params that change the topology
   or the keys never hit another world. *)
let cached_world_equals_fresh () =
  with_server ~workers:2 @@ fun listen _t ->
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let served p = fst (session_digest c p) in
  (* The same seed twice in sequence: the second run is a hit. *)
  let p = params 60 in
  let want = fst (batch_digest p) in
  check_string "first run (miss) = batch" want (served p);
  let hits0, misses0 = world_stats c in
  check_string "second run (hit) = batch" want (served p);
  let hits1, misses1 = world_stats c in
  check_int "second run hit the cache" (hits0 + 1) hits1;
  check_int "second run built nothing" misses0 misses1;
  (* The same seed on two connections at once, both hits on one world. *)
  let p = params 61 in
  let want = fst (batch_digest p) in
  check_string "priming run = batch" want (served p);
  let got = Array.make 2 (Error "never ran") in
  let threads =
    Array.init 2 (fun i ->
        Thread.create
          (fun () ->
            let c = Cl.connect listen in
            Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
            got.(i) <-
              (match Cl.open_session c p with
              | Error e -> Error e
              | Ok id -> Result.map fst (Cl.run_epochs c id)))
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Ok d -> check_string (Printf.sprintf "concurrent hit %d = batch" i) want d
      | Error e -> Alcotest.fail (Printf.sprintf "concurrent hit %d: %s" i e))
    got;
  let hits2, _ = world_stats c in
  check_int "both concurrent runs hit" (hits1 + 2) hits2;
  (* One p_seed, worlds that differ in the key size, the hierarchy and
     the generator seed: each must build its own world.  Report lines
     carry no signatures, so the key size leaves the digest unchanged and
     only the miss count shows that 768-bit keys were generated. *)
  let base = params 62 in
  let generated = { base with W.p_ases = 5; p_gen_seed = Some 1 } in
  List.iter
    (fun (what, a, b) ->
      let da = fst (batch_digest a) and db = fst (batch_digest b) in
      if what <> "p_bits" then
        check_bool (what ^ ": the digests differ") true (da <> db);
      check_string (what ^ ": first world = batch") da (served a);
      let _, misses = world_stats c in
      check_string (what ^ ": second world = batch") db (served b);
      let _, misses' = world_stats c in
      check_int (what ^ ": second world built") (misses + 1) misses')
    [
      ("p_bits", base, { base with W.p_bits = 768 });
      ("p_tiers", base, { base with W.p_tiers = "1,3" });
      ("p_gen_seed", generated, { generated with W.p_gen_seed = Some 2 });
    ]

(* The cache itself, with a bound of six keys: two 3-AS worlds fit, a
   third evicts the least recently used, and a 7-AS world never enters. *)
let world_cache_evicts_lru () =
  let bound = 6 in
  let cache = S.World_cache.create ~max_keys:bound in
  let build p = W.build_world ~quiet:true ~cache:(S.World_cache.lookup cache) p in
  let run p =
    let st = S.World_cache.stats cache in
    let w = build p in
    let st' = S.World_cache.stats cache in
    check_bool "cached keys within the bound" true (st'.S.World_cache.keys <= bound);
    (match W.engine_core ~quiet:true w p with
    | Ok (d, _) -> check_string "digest = batch" (fst (batch_digest p)) d
    | Error e -> Alcotest.fail e);
    st'.S.World_cache.hits > st.S.World_cache.hits
  in
  let cached p = S.World_cache.mem cache (W.world_key p) in
  let a = params 70 and b = params 71 and c = params 72 in
  check_bool "a misses" false (run a);
  check_bool "b misses" false (run b);
  check_bool "a hits, and is now most recently used" true (run a);
  check_bool "c misses" false (run c);
  check_bool "b, least recently used, was evicted" false (cached b);
  check_bool "a stays" true (cached a);
  check_bool "c stays" true (cached c);
  check_bool "evicted b is rebuilt" false (run b);
  check_bool "rebuilding b evicted a" false (cached a);
  let big = { (params 73) with W.p_tiers = "1,2,4" } in
  check_bool "an oversized world misses" false (run big);
  check_bool "an oversized world is not cached" false (cached big);
  check_bool "and evicts nothing" true (cached b && cached c);
  check_bool "it misses again" false (run big)

(* ---- held evidence index ------------------------------------------------------------ *)

(* The daemon answers queries from one held index.  An epoch appended to
   the served store between two queries must show up in the second
   answer, which must equal Exec.run over a freshly built index. *)
let held_index_follows_journal () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pvr-serve-idx-%d" (Unix.getpid ()))
  in
  let p = params ~epochs:2 80 in
  let record epochs ~resume =
    let p = { p with W.p_epochs = epochs } in
    match
      W.engine_core ~quiet:true ~checkpoint_dir:dir ~resume ~fsync:false
        (W.build_world ~quiet:true p) p
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("recording the store: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () ->
  record 2 ~resume:false;
  let court = Pvr.Leakage.court in
  let text = "rows where epoch >= 1 order by epoch" in
  let q =
    match Pvr_query.Lang.parse text with
    | Ok q -> q
    | Error _ -> Alcotest.fail "query syntax"
  in
  let fresh () =
    match Pvr_query.Evidence_index.build ~quiet:true ~dir () with
    | Error e -> Alcotest.fail e
    | Ok idx ->
        let res = Pvr_query.Exec.run idx ~viewer:court q in
        ( res.Pvr_query.Exec.qr_rows,
          String.split_on_char '\n'
            (Pvr_query.Exec.render_json ~query:q ~viewer:court res) )
  in
  with_server ~store_dir:dir @@ fun listen _t ->
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let ask () =
    match Cl.query ~viewer:(Pvr_bgp.Asn.to_int court) ~json:true c text with
    | Ok rows -> rows
    | Error e -> Alcotest.fail ("query: " ^ e)
  in
  let _, want2 = fresh () in
  let got2 = ask () in
  check_bool "two-epoch answer = fresh index" true (got2 = want2);
  check_bool "an unchanged journal gives the same answer" true (ask () = want2);
  record 3 ~resume:true;
  let rows3, want3 = fresh () in
  check_bool "the appended epoch has rows" true
    (List.exists (fun r -> r.Pvr_query.Row.r_epoch = 3) rows3);
  let got3 = ask () in
  check_bool "the second answer shows the new rows" true (got3 <> got2);
  check_bool "three-epoch answer = fresh index" true (got3 = want3)

(* ---- backpressure ------------------------------------------------------------------ *)

(* Fill every resident worker with stalls, then the 1-slot queue, then
   probe: the probe must be refused [Busy] immediately, and the queue
   gauge must never exceed the cap — bounded admission, not buffering. *)
let backpressure_returns_busy () =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset_all ())
  @@ fun () ->
  Obs.reset_all ();
  Obs.set_enabled true;
  with_server ~workers:2 ~queue_cap:1 @@ fun listen _t ->
  let workers = Pool.worker_count () in
  check_bool "pool has workers" true (workers >= 1);
  let occupants = workers + 1 in
  let finished = Atomic.make 0 in
  let threads =
    List.init occupants (fun _ ->
        Thread.create
          (fun () ->
            let c = Cl.connect listen in
            Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
            (match Cl.stall c 1500 with
            | Ok () -> ()
            | Error e -> Alcotest.fail ("occupant stall: " ^ e));
            Atomic.incr finished)
          ())
  in
  let probe = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close probe) @@ fun () ->
  poll ~what:"full queue" (fun () ->
      match Cl.stats probe with
      | Ok st -> st.Pr.st_queue_depth >= 1
      | Error _ -> false);
  (match Cl.stall probe 10 with
  | Error e -> check_string "probe refused" "busy" e
  | Ok () -> Alcotest.fail "expected Busy with a full queue");
  check_bool "queue gauge bounded by cap" true
    (Obs.gauge_read (Obs.gauge "serve.queue.depth") <= 1);
  check_bool "refusals counted" true (Obs.value (Obs.counter "serve.busy") >= 1);
  List.iter Thread.join threads;
  check_int "every admitted stall completed" occupants (Atomic.get finished)

(* ---- vanished clients -------------------------------------------------------------- *)

(* A client that hangs up mid-stream must cancel its own session and
   nothing else: the pool drains, the daemon stays serviceable, and a
   subsequent session completes with the right digest. *)
let killed_client_never_wedges ?listen () =
  with_server ?listen @@ fun listen t ->
  let p = params ~epochs:6 77 in
  let fd = raw_connect listen in
  Pr.send_request fd (Pr.Open_session p);
  let sid =
    match Pr.recv_response fd with
    | Ok (Pr.Session id) -> id
    | _ -> Alcotest.fail "expected a session id"
  in
  Pr.send_request fd (Pr.Run_epochs sid);
  (* One verdict in hand proves the stream is live — now vanish. *)
  (match Pr.recv_response fd with
  | Ok (Pr.Verdict _) -> ()
  | _ -> Alcotest.fail "expected a verdict frame");
  Unix.close fd;
  (* The worker's next write fails and unwinds the run. *)
  poll ~what:"pool drain after client death" (fun () ->
      let st = S.stats t in
      st.Pr.st_inflight = 0 && st.Pr.st_sessions = 0);
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let want, _ = batch_digest (params 78) in
  let got, _ = session_digest c (params 78) in
  check_string "daemon still serves correct digests" want got

(* ---- oversized request headers --------------------------------------------------- *)

(* Twenty clients each announce a 16 MiB request and send nothing more.
   The daemon hangs up on each at once, without allocating the payload,
   and keeps serving. *)
let oversized_requests_hang_up () =
  with_server @@ fun listen t ->
  let n = 20 in
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let before = heap () in
  let fds = List.init n (fun _ -> raw_connect listen) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int Pr.max_frame);
  List.iter (fun fd -> ignore (Unix.write fd hdr 0 4 : int)) fds;
  List.iter
    (fun fd ->
      match Unix.select [ fd ] [] [] 5.0 with
      | [], _, _ -> Alcotest.fail "connection still open after 5 s"
      | _ -> (
          match Unix.read fd (Bytes.create 1) 0 1 with
          | 0 -> ()
          | _ -> Alcotest.fail "expected the daemon to hang up"
          | exception Unix.Unix_error (ECONNRESET, _, _) -> ()))
    fds;
  let bound_words = n * Pr.max_request / (Sys.word_size / 8) in
  check_bool "heap growth under one request bound per connection" true
    (heap () - before < bound_words);
  poll ~what:"hung-up connections" (fun () -> (S.stats t).Pr.st_inflight = 0);
  let c = Cl.connect listen in
  Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
  let want, _ = batch_digest (params 79) in
  check_string "a later session = batch" want (fst (session_digest c (params 79)))

(* ---- drain on shutdown ------------------------------------------------------------- *)

(* initiate_shutdown mid-stream: the in-flight session finishes and its
   terminal frame arrives; afterwards the listener is gone. *)
let shutdown_drains_inflight () =
  let p = params ~epochs:4 91 in
  let want, _ = batch_digest p in
  let path = fresh_sock () in
  let listen = S.Unix_sock path in
  let t = S.start { (S.default_config listen) with workers = 2 } in
  let first_verdict = Atomic.make false in
  let result = ref (Error "never ran") in
  let client =
    Thread.create
      (fun () ->
        let c = Cl.connect listen in
        Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
        match Cl.open_session c p with
        | Error e -> result := Error e
        | Ok id ->
            result :=
              Cl.run_epochs
                ~on_verdict:(fun _ -> Atomic.set first_verdict true)
                c id)
      ()
  in
  poll ~what:"first verdict" (fun () -> Atomic.get first_verdict);
  S.initiate_shutdown t;
  S.wait t;
  Thread.join client;
  (match !result with
  | Ok (d, _) -> check_string "in-flight stream completed through drain" want d
  | Error e -> Alcotest.fail ("stream aborted by shutdown: " ^ e));
  (match Cl.connect listen with
  | exception Unix.Unix_error _ -> ()
  | c ->
      Cl.close c;
      Alcotest.fail "listener must be gone after drain");
  try Unix.unlink path with Unix.Unix_error _ -> ()

(* ---- real SIGTERM against the forked CLI ------------------------------------------- *)

let cli = "../bin/pvr_cli.exe"

let sigterm_drains_forked_daemon () =
  let path = fresh_sock () in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; path; "--workers"; "2" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  poll ~what:"daemon socket" (fun () ->
      Sys.file_exists path
      &&
      match raw_connect (S.Unix_sock path) with
      | exception Unix.Unix_error _ -> false
      | fd ->
          Unix.close fd;
          true);
  let p = params ~epochs:3 13 in
  let want, _ = batch_digest p in
  let fd = raw_connect (S.Unix_sock path) in
  Pr.send_request fd (Pr.Open_session p);
  let sid =
    match Pr.recv_response fd with
    | Ok (Pr.Session id) -> id
    | _ -> Alcotest.fail "expected a session id"
  in
  Pr.send_request fd (Pr.Run_epochs sid);
  (* First verdict in hand = the stream is in flight; SIGTERM now. *)
  (match Pr.recv_response fd with
  | Ok (Pr.Verdict v) -> check_int "first epoch" 1 v.Pr.v_epoch
  | _ -> Alcotest.fail "expected a verdict frame");
  Unix.kill pid Sys.sigterm;
  (* The drain contract: the in-flight stream still terminates with the
     correct digest... *)
  let rec drain () =
    match Pr.recv_response fd with
    | Ok (Pr.Verdict _) -> drain ()
    | Ok (Pr.Done { d_digest; _ }) -> d_digest
    | Ok (Pr.Err e) -> Alcotest.fail ("stream aborted: " ^ e)
    | _ -> Alcotest.fail "unexpected frame while draining"
  in
  check_string "digest across SIGTERM" want (drain ());
  Unix.close fd;
  (* ...and the daemon then exits 0 and removes its socket. *)
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "daemon exited %d" n)
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
      Alcotest.fail "daemon killed by signal");
  check_bool "socket removed on exit" false (Sys.file_exists path)

let suite =
  [
    Alcotest.test_case "serve: ping, stats, protocol errors" `Quick
      ping_stats_and_errors;
    Alcotest.test_case "serve: session digest = batch digest" `Quick
      serve_matches_batch;
    Alcotest.test_case "serve: session digest = batch digest over TCP" `Quick
      (fun () -> serve_matches_batch ~listen:(fresh_tcp ()) ());
    Alcotest.test_case "serve: sessions belong to their connection" `Quick
      sessions_belong_to_connection;
    Alcotest.test_case "serve: concurrent sessions are isolated" `Quick
      concurrent_sessions_isolated;
    Alcotest.test_case "serve: cached world equals a fresh world" `Quick
      cached_world_equals_fresh;
    Alcotest.test_case "serve: world cache evicts least recently used" `Quick
      world_cache_evicts_lru;
    Alcotest.test_case "serve: held index follows the journal" `Quick
      held_index_follows_journal;
    Alcotest.test_case "serve: backpressure refuses with Busy" `Slow
      backpressure_returns_busy;
    Alcotest.test_case "serve: killed client never wedges the pool" `Quick
      killed_client_never_wedges;
    Alcotest.test_case "serve: killed client never wedges the pool over TCP"
      `Quick
      (fun () -> killed_client_never_wedges ~listen:(fresh_tcp ()) ());
    Alcotest.test_case "serve: oversized request headers are hung up on" `Quick
      oversized_requests_hang_up;
    Alcotest.test_case "serve: shutdown drains in-flight streams" `Quick
      shutdown_drains_inflight;
    Alcotest.test_case "serve: SIGTERM drains the forked daemon" `Slow
      sigterm_drains_forked_daemon;
  ]
