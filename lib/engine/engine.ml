module Bgp = Pvr_bgp
module C = Pvr_crypto

type vertex = { vprover : Bgp.Asn.t; vprefix : Bgp.Prefix.t }

type outcome = {
  vx_vertex : vertex;
  vx_beneficiary : Bgp.Asn.t;
  vx_providers : Bgp.Asn.t list;
  vx_routes : (Bgp.Asn.t * Bgp.Route.t) list;
  vx_recomputed : bool;
  vx_behaviour : Pvr.Adversary.behaviour;
  vx_detected : bool;
  vx_convicted : bool;
  vx_evidence : int;
  vx_kinds : string list;
  vx_leaked_bits : int;
  vx_excess_bits : int;
  vx_required : bool;
  vx_line : string;
}

type epoch_report = {
  ep_epoch : int;
  ep_period : int;
  ep_changes : int;
  ep_msgs : int;
  ep_vertices : int;
  ep_dirty : int;
  ep_skipped : int;
  ep_detected : int;
  ep_convicted : int;
  ep_outcomes : outcome list;
  ep_digest : string;
}

let c_epochs = Pvr_obs.counter "engine.epochs"
let c_rounds = Pvr_obs.counter "engine.rounds"
let c_skipped = Pvr_obs.counter "engine.vertices.skipped"
let sign_hits = Pvr_obs.counter "engine.cache.sign.hits"
let sign_misses = Pvr_obs.counter "engine.cache.sign.misses"
let g_heap_words = Pvr_obs.gauge "engine.gc.heap_words"
let g_allocated_words = Pvr_obs.gauge "engine.gc.allocated_words"

(* Memory-governor telemetry: every spill and page read is counted so a
   bounded-memory run is auditable after the fact. *)
let c_mem_spills = Pvr_obs.counter "engine.mem.spills"
let c_mem_unspills = Pvr_obs.counter "engine.mem.unspills"
let c_mem_page_reads = Pvr_obs.counter "engine.mem.page_reads"
let c_mem_page_read_failures = Pvr_obs.counter "engine.mem.page_read_failures"
let g_mem_resident = Pvr_obs.gauge "engine.mem.resident"
let g_mem_spilled = Pvr_obs.gauge "engine.mem.spilled"
let g_mem_ceiling = Pvr_obs.gauge "engine.mem.ceiling"

(* Per-vertex memo tables.  A vertex is (re)computed by exactly one pool
   task per epoch, so its tables have a single owner at any time; the pool's
   join barrier publishes them back to the scheduling domain. *)
type vcache = { ccache : C.Commitment.Cache.t; memo : Pvr.Runner.memo }

type snapshot = {
  sn_vertex : vertex;
  sn_beneficiary : Bgp.Asn.t;
  sn_inputs : (Bgp.Asn.t * Bgp.Route.t) list; (* sorted by ASN *)
  sn_export : Bgp.Route.t; (* unprepended; equals one input route *)
}

(* Vertex carry-forward state is keyed by the snapshot digest rather than
   the snapshot itself: digest equality is what the clean-skip test needs,
   and a digest is all a spilled slot has to keep in memory. *)
type vstate = {
  mutable vs_digest : string; (* snapshot_digest of the last verified state *)
  mutable vs_period : int;
  mutable vs_outcome : outcome;
  mutable vs_cache : vcache option;
      (* [None] when the engine runs with the cache off: nothing would
         ever read the tables *)
  mutable vs_touched : int;
      (* engine epoch of the last recomputation — the LRU recency key the
         governor spills by *)
}

(* A vertex slot is either resident or paged out to the store.  A spilled
   slot keeps only what the clean-skip test needs (snapshot digest + salt
   period) plus the journal offset of its page frame; the outcome is read
   back transiently each epoch, so a cold vertex costs O(1) heap. *)
type spilled = { sp_digest : string; sp_period : int; sp_off : int }
type slot = Resident of vstate | Spilled of spilled

(* Paging backend: append a page blob (returning a stable address) and
   read one back.  [Persist.pager] wires this to the WAL journal;
   [memory_pager] is the store-free variant unit tests use. *)
type pager = {
  pg_append : blob:string -> int;
  pg_read : off:int -> (string, string) result;
}

let memory_pager () =
  let tbl : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  {
    pg_append =
      (fun ~blob ->
        let off = !next in
        incr next;
        Hashtbl.replace tbl off blob;
        off);
    pg_read =
      (fun ~off ->
        match Hashtbl.find_opt tbl off with
        | Some b -> Ok b
        | None -> Error "no such page");
  }

type t = {
  keyring : Pvr.Keyring.t;
  topo : Bgp.Topology.t;
  sim : Bgp.Simulator.t;
  jobs : int;
  cache : bool;
  salt_every : int;
  max_path_len : int;
  strategy : Pvr.Adversary.strategy;
  transport : Pvr.Runner.transport;
  secret : string;
  ases : Bgp.Asn.t list; (* sorted *)
  nbrs : (Bgp.Asn.t, Bgp.Asn.t list) Hashtbl.t;
      (* per-AS sorted neighbor ASNs; the topology is immutable, so this is
         computed once instead of per prover per epoch in [collect] *)
  states : (string, slot) Hashtbl.t;
  mutable epoch_no : int;
  mutable chain : string;
  mutable pager : pager;
  mutable mem_ceiling : int; (* heap-word budget; 0 = unbounded *)
}

let chain0 = C.Sha256.digest_hex "pvr-engine-report-v1"

(* The pager of an engine without a ceiling: the governor never runs, so
   nothing is ever appended or read. *)
let no_pager =
  {
    pg_append = (fun ~blob:_ -> invalid_arg "Engine: no pager installed");
    pg_read = (fun ~off:_ -> Error "no pager installed");
  }

let create ?(jobs = 1) ?(cache = true) ?(salt_every = 8)
    ?(max_path_len = Pvr.Proto_min.default_max_path_len)
    ?(strategy = Pvr.Adversary.Sweep Pvr.Adversary.Honest) ?faults rng
    keyring ~topology ~sim () =
  (* One draw fixes every future salt and task seed; the caller's generator
     is never consulted again, so engine output is a function of this
     secret alone. *)
  let secret = C.Drbg.generate rng 32 in
  let nbrs = Hashtbl.create 256 in
  List.iter
    (fun a ->
      Hashtbl.replace nbrs a
        (List.map fst (Bgp.Topology.neighbors topology a)
        |> List.sort Bgp.Asn.compare))
    (Bgp.Topology.ases topology);
  {
    keyring;
    topo = topology;
    sim;
    jobs = max 1 jobs;
    cache;
    salt_every = max 1 salt_every;
    max_path_len;
    strategy;
    transport =
      (match faults with
      | None -> Pvr.Runner.Direct
      | Some f -> Pvr.Runner.Net f);
    secret;
    ases = List.sort Bgp.Asn.compare (Bgp.Topology.ases topology);
    nbrs;
    states = Hashtbl.create 256;
    epoch_no = 0;
    chain = chain0;
    pager = no_pager;
    mem_ceiling = 0;
  }

let current_epoch t = t.epoch_no
let digest t = t.chain

let set_governor t ~ceiling ~pager =
  t.mem_ceiling <- max 0 ceiling;
  t.pager <- pager;
  Pvr_obs.set_gauge g_mem_ceiling t.mem_ceiling

let resident_states t =
  Hashtbl.fold
    (fun _ s n -> match s with Resident _ -> n + 1 | Spilled _ -> n)
    t.states 0

let spilled_states t =
  Hashtbl.fold
    (fun _ s n -> match s with Spilled _ -> n + 1 | Resident _ -> n)
    t.states 0

let signatures t =
  Hashtbl.fold
    (fun _ slot acc ->
      match slot with
      | Resident { vs_cache = Some vc; _ } ->
          Pvr.Runner.memo_signatures vc.memo @ acc
      | Resident _ | Spilled _ -> acc)
    t.states []
  |> List.sort compare

let vertex_key v =
  Bgp.Asn.to_string v.vprover ^ "|" ^ Bgp.Prefix.to_string v.vprefix

let salt t ~period =
  C.Hmac.mac ~key:t.secret ("engine-salt|" ^ string_of_int period)

let fresh_vcache t ~period =
  {
    ccache = C.Commitment.Cache.create ~period ~key:(salt t ~period) ();
    memo =
      Pvr.Runner.memo
        ~on_lookup:(fun ~hit ->
          Pvr_obs.incr (if hit then sign_hits else sign_misses))
        ();
  }

(* Salt rotation: reuse the carried vcache's allocations, invalidate every
   entry.  The signed-message memos key on encodings that embed the wire
   epoch, so after rotation their entries could never hit again — reset
   them rather than letting them accumulate. *)
let recycle_vcache t vc ~period =
  C.Commitment.Cache.rotate vc.ccache ~period ~key:(salt t ~period);
  Pvr.Runner.clear_memo vc.memo;
  vc

(* SHA-256 over the beneficiary, the export and each input's neighbour and
   route, joined by NUL bytes, each route as its [Route.encode] bytes.  It
   runs for every live vertex every epoch, so the routes are written in
   place into the hash rather than built as strings. *)
let snapshot_ctx = Domain.DLS.new_key C.Sha256.init

let snapshot_digest sn =
  let ctx = Domain.DLS.get snapshot_ctx in
  C.Sha256.reset ctx;
  C.Sha256.update ctx (Bgp.Asn.to_string sn.sn_beneficiary);
  C.Sha256.update ctx "\x00";
  Bgp.Route.absorb ctx sn.sn_export;
  List.iter
    (fun (n, r) ->
      C.Sha256.update ctx "\x00";
      C.Sha256.update ctx (Bgp.Asn.to_string n);
      C.Sha256.update ctx "\x00";
      Bgp.Route.absorb ctx r)
    sn.sn_inputs;
  C.Hex.encode (C.Sha256.finalize ctx)

(* The simulator's Adj-RIB-Out entry carries the prover's prepended path;
   PVR compares exports against inputs as received, so strip the prover. *)
let unprepend prover (r : Bgp.Route.t) =
  match r.Bgp.Route.as_path with
  | first :: (next :: _ as rest) when Bgp.Asn.equal first prover ->
      { r with Bgp.Route.as_path = rest; next_hop = next }
  | _ -> r

(* Enumerate this epoch's live vertices: every (prover, prefix) with at
   least one admissible input and a beneficiary neighbor whose Adj-RIB-Out
   entry matches an input route.  Self-originated prefixes are not promises
   about received routes and are skipped.  With the default decision
   process and uniform local-pref the simulator's export is a minimum-length
   input, so an honest engine round raises no evidence — the test suite's
   Accuracy soak depends on exactly this enumeration. *)
let collect t =
  List.concat_map
    (fun prover ->
      let rib = Bgp.Simulator.rib t.sim prover in
      let neighbors =
        Option.value (Hashtbl.find_opt t.nbrs prover) ~default:[]
      in
      let prefixes = List.sort Bgp.Prefix.compare (Bgp.Rib.prefixes rib) in
      List.filter_map
        (fun prefix ->
          let self_originated =
            match Bgp.Rib.get_best rib prefix with
            | Some r -> (
                match r.Bgp.Route.as_path with
                | [ a ] -> Bgp.Asn.equal a prover
                | _ -> false)
            | None -> false
          in
          if self_originated then None
          else begin
            let inputs =
              List.filter_map
                (fun n ->
                  match Bgp.Rib.get_in rib ~neighbor:n prefix with
                  | Some r when Bgp.Route.path_length r <= t.max_path_len ->
                      Some (n, r)
                  | _ -> None)
                neighbors
            in
            if inputs = [] then None
            else begin
              let providers = List.map fst inputs in
              let rec pick = function
                | [] -> None
                | n :: rest -> (
                    if List.exists (Bgp.Asn.equal n) providers then pick rest
                    else
                      match
                        Bgp.Simulator.exported_route t.sim ~asn:prover
                          ~neighbor:n prefix
                      with
                      | Some out ->
                          let route = unprepend prover out in
                          if
                            List.exists
                              (fun (_, r) -> Bgp.Route.equal r route)
                              inputs
                          then Some (n, route)
                          else pick rest
                      | None -> pick rest)
              in
              match pick neighbors with
              | None -> None
              | Some (beneficiary, export) ->
                  Some
                    {
                      sn_vertex = { vprover = prover; vprefix = prefix };
                      sn_beneficiary = beneficiary;
                      sn_inputs = inputs;
                      sn_export = export;
                    }
            end
          end)
        prefixes)
    t.ases

let providers_string providers =
  String.concat "," (List.map Bgp.Asn.to_string providers)

(* ---- the round: draft, sign, check ----------------------------------------

   Every dirty vertex runs the round of {!Pvr.Runner} in pool phases over
   the dirty set (draft per vertex, sign per signer, check per vertex), so
   that signing is batched across vertices (§3.8).  Each phase is a pure
   function of (secret, keyring, salt period, snapshots); signatures depend
   on which statements share a batch, but report lines never hold one. *)

(* The [Net] round's DRBG is seeded from (engine secret, vertex, wire
   epoch, snapshot digest): the fault schedule is a pure function of the
   vertex state, whatever the scheduling, jobs or cache. *)
let round_rng t ~wire_epoch (sn : snapshot) =
  lazy
    (C.Drbg.create
       ~seed:
         (String.concat "|"
            [ t.secret; "round"; vertex_key sn.sn_vertex;
              string_of_int wire_epoch; snapshot_digest sn ]))

(* Derived nonces: a quiet vertex recommitting to the same bit pattern
   within a salt period pays zero hash work (the vector memo).  The context
   embeds the wire epoch, which is constant within a period. *)
let committer vc ~wire_epoch (sn : snapshot) ~tag bits =
  C.Commitment.Cache.commit_bit_vector vc.ccache
    ~context:(Printf.sprintf "%s|%d%s" (vertex_key sn.sn_vertex) wire_epoch tag)
    bits

let draft_round t ~wire_epoch ((sn : snapshot), vc) =
  let prover = sn.sn_vertex.vprover in
  (* The plan is a pure function of (secret, vertex, wire epoch): identical
     for every jobs/cache configuration, and stable within a salt period so
     carried-forward outcomes agree with recomputation. *)
  let plan =
    Pvr.Adversary.plan_round t.strategy ~seed:t.secret ~prover
      ~prefix:sn.sn_vertex.vprefix ~epoch:wire_epoch
  in
  let link, inputs =
    Pvr.Runner.connect t.transport (round_rng t ~wire_epoch sn) ~prover
      sn.sn_inputs
  in
  let d =
    Pvr.Proto_min.draft ~max_path_len:t.max_path_len ~export:sn.sn_export
      t.keyring
      ~committer:(committer vc ~wire_epoch sn)
      ~prover ~beneficiary:sn.sn_beneficiary ~epoch:wire_epoch
      ~prefix:sn.sn_vertex.vprefix ~inputs
  in
  (plan, link, (vc.memo, Pvr.Runner.Min (Pvr.Adversary.perturb plan d)))

(* (leaked, excess) bits: every party's view audited against its plain-BGP
   baseline under the Figure-1 α — each provider, the beneficiary, and the
   plan's coalition of the first [rp_coalition] providers by ASN.  B's
   baseline is the promise-kept export, so a cheating round's disclosures
   legitimately show positive excess: the meter flagging the cheat. *)
let audit ledger plan (sn : snapshot) =
  let module L = Pvr.Leakage in
  (* α is consulted only for excess facts, which honest rounds never show. *)
  let alpha =
    lazy
      (Pvr.Access_control.figure1 ~beneficiary:sn.sn_beneficiary
         ~providers:(List.map fst sn.sn_inputs))
  in
  let audit ~viewer members =
    let baseline = L.pooled (List.map snd members) in
    let authorized f =
      List.exists
        (fun (v, _) -> L.alpha_authorizes (Lazy.force alpha) ~viewer:v f)
        members
    in
    L.audit ~viewer ~authorized ~baseline
      ~observed:
        (baseline
        @ List.concat_map (fun (v, _) -> L.Ledger.view ledger ~viewer:v) members)
      ()
  in
  let single (v, baseline) =
    audit ~viewer:(Bgp.Asn.to_string v) [ (v, baseline) ]
  in
  let provider (p, r) = (p, L.plain_bgp_provider ~me:p ~my_route:r) in
  let coalition =
    List.filteri (fun i _ -> i < plan.Pvr.Adversary.rp_coalition) sn.sn_inputs
  in
  let audits =
    single
      ( sn.sn_beneficiary,
        L.plain_bgp_beneficiary ~exported:(Some sn.sn_export) )
    :: List.map (fun i -> single (provider i)) sn.sn_inputs
    @
    if plan.Pvr.Adversary.rp_coalition > 1 then
      [
        audit
          ~viewer:("coalition:" ^ providers_string (List.map fst coalition))
          (List.map provider coalition);
      ]
    else []
  in
  ( L.Ledger.bits ledger,
    List.fold_left (fun n a -> n + a.L.au_excess_bits) 0 audits )

let check_round t ~verified (sn : snapshot) plan link round =
  let ledger = Pvr.Leakage.Ledger.create () in
  let nr = Pvr.Runner.check ~ledger ~verified t.keyring link round in
  let base = nr.Pvr.Runner.base in
  let leaked, excess = audit ledger plan sn in
  let beneficiary = sn.sn_beneficiary in
  let providers = List.map fst sn.sn_inputs in
  let raised = base.Pvr.Runner.raised in
  let commit = round.Pvr.Runner.commit_b.Pvr.Wire.payload in
  let line =
    Printf.sprintf "%s %s b=%s prov=%s det=%b conv=%b ev=%d c=%s"
      (Bgp.Asn.to_string sn.sn_vertex.vprover)
      (Bgp.Prefix.to_string sn.sn_vertex.vprefix)
      (Bgp.Asn.to_string beneficiary)
      (providers_string providers)
      base.Pvr.Runner.detected base.Pvr.Runner.convicted (List.length raised)
      (String.sub
         (C.Sha256.digest_hex (String.concat "" commit.Pvr.Wire.cmt_commitments))
         0 16)
  in
  let behaviour = plan.Pvr.Adversary.rp_behaviour in
  {
    vx_vertex = sn.sn_vertex;
    vx_beneficiary = beneficiary;
    vx_providers = providers;
    vx_routes = sn.sn_inputs;
    vx_recomputed = true;
    vx_behaviour = behaviour;
    vx_detected = base.Pvr.Runner.detected;
    vx_convicted = base.Pvr.Runner.convicted;
    vx_evidence = List.length raised;
    vx_kinds =
      List.sort_uniq String.compare
        (List.map (fun (_, e) -> Pvr.Evidence.kind e) raised);
    vx_leaked_bits = leaked;
    vx_excess_bits = excess;
    vx_required =
      behaviour <> Pvr.Adversary.Honest
      && Pvr.Runner.detection_expected behaviour ~beneficiary
           ~routes:sn.sn_inputs nr;
    vx_line = line;
  }

(* Every dirty vertex's round, outcomes in task order. *)
let run_rounds t ~wire_epoch (work : (snapshot * vcache) array) =
  let drafted =
    Pool.run ~jobs:t.jobs
      (Array.map (fun w () -> draft_round t ~wire_epoch w) work)
  in
  let rounds =
    Pvr.Runner.sign
      ~pool:{ Pvr.Runner.run = (fun tasks -> Pool.run ~jobs:t.jobs tasks) }
      t.keyring
      (Array.map (fun (_, _, md) -> md) drafted)
  in
  (* One table of verified signature roots for the epoch's check phase:
     a beneficiary checks each signer's batch root once, however many of
     the signer's statements it receives.  Dropped with the epoch. *)
  let verified = Pvr.Wire.Verified.create () in
  Pool.run ~jobs:t.jobs
    (Array.mapi
       (fun i (sn, _) () ->
         let plan, link, _ = drafted.(i) in
         check_round t ~verified sn plan link rounds.(i))
       work)

let report_line r =
  Printf.sprintf
    "epoch=%d period=%d changes=%d msgs=%d vertices=%d dirty=%d skipped=%d \
     detected=%d convicted=%d digest=%s"
    r.ep_epoch r.ep_period r.ep_changes r.ep_msgs r.ep_vertices r.ep_dirty
    r.ep_skipped r.ep_detected r.ep_convicted r.ep_digest

(* ---- evidence rows and spill pages ----------------------------------------- *)

module Codec = Pvr_crypto.Codec
module Row = Pvr_query.Row

let row_of_outcome ~epoch o =
  {
    Row.r_epoch = epoch;
    r_prover = Bgp.Asn.to_int o.vx_vertex.vprover;
    r_addr = o.vx_vertex.vprefix.Bgp.Prefix.addr;
    r_len = o.vx_vertex.vprefix.Bgp.Prefix.len;
    r_beneficiary = Bgp.Asn.to_int o.vx_beneficiary;
    r_providers = List.map Bgp.Asn.to_int o.vx_providers;
    r_behaviour = Pvr.Adversary.to_string o.vx_behaviour;
    r_detected = o.vx_detected;
    r_convicted = o.vx_convicted;
    r_evidence = o.vx_evidence;
    r_kinds = o.vx_kinds;
    r_leaked = o.vx_leaked_bits;
    r_excess = o.vx_excess_bits;
  }

(* A page is the outcome as an evidence row body ({!Row.encode_body}:
   prover through excess), then the canonical line, [vx_required], and one
   [Route.encode] string per provider, in provider order.  The spilled slot
   keeps the snapshot digest and salt period in memory, so the page carries
   neither.  The body carries no epoch. *)
let page_blob vs =
  let o = vs.vs_outcome in
  let buf = Buffer.create 256 in
  Row.encode_body buf (row_of_outcome ~epoch:0 o);
  Codec.str buf o.vx_line;
  Codec.bool_ buf o.vx_required;
  List.iter (fun (_, r) -> Codec.str buf (Bgp.Route.encode r)) o.vx_routes;
  Buffer.contents buf

let read_page r =
  let row = Row.read_body ~epoch:0 r in
  let behaviour =
    match Pvr.Adversary.behaviour_of_string row.Row.r_behaviour with
    | Some b -> b
    | None -> Codec.malformed ("unknown behaviour " ^ row.Row.r_behaviour)
  in
  let line = Codec.get_str r in
  let required = Codec.get_bool r in
  let providers = Row.providers row in
  let routes =
    List.map
      (fun p ->
        match Pvr.Wire.decode_route (Codec.get_str r) with
        | Some route -> (p, route)
        | None -> Codec.malformed "undecodable route")
      providers
  in
  {
    vx_vertex = { vprover = Row.prover row; vprefix = Row.prefix row };
    vx_beneficiary = Row.beneficiary row;
    vx_providers = providers;
    vx_routes = routes;
    vx_recomputed = false;
    vx_behaviour = behaviour;
    vx_detected = row.Row.r_detected;
    vx_convicted = row.Row.r_convicted;
    vx_evidence = row.Row.r_evidence;
    vx_kinds = row.Row.r_kinds;
    vx_leaked_bits = row.Row.r_leaked;
    vx_excess_bits = row.Row.r_excess;
    vx_required = required;
    vx_line = line;
  }

(* ---- memory governor ------------------------------------------------------- *)

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

(* Read a spilled vertex's carried outcome back from its page.  [None] on
   any failure — a torn frame, a mangled record — which the caller turns
   into a recomputation; the purity contract makes that digest-identical,
   so a corrupt page can degrade performance but never poison a result. *)
let page_outcome t sp =
  match t.pager.pg_read ~off:sp.sp_off with
  | Error _ ->
      Pvr_obs.incr c_mem_page_read_failures;
      None
  | Ok blob -> (
      Pvr_obs.incr c_mem_page_reads;
      match Codec.decode blob read_page with
      | Error _ ->
          Pvr_obs.incr c_mem_page_read_failures;
          None
      | Ok o -> Some o)

(* Page resident vertices out, coldest (oldest recomputation) first; with
   [all] even this epoch's vertices go.  The key tiebreak keeps the spill
   order — and hence the journal layout — deterministic. *)
let spill t ~on_phase ~all =
  let candidates =
    Hashtbl.fold
      (fun k s acc ->
        match s with
        | Resident vs when all || vs.vs_touched < t.epoch_no -> (k, vs) :: acc
        | _ -> acc)
      t.states []
    |> List.sort (fun (k1, a) (k2, b) ->
           match Int.compare a.vs_touched b.vs_touched with
           | 0 -> String.compare k1 k2
           | c -> c)
  in
  let first = ref true in
  List.iter
    (fun (key, vs) ->
      let off = t.pager.pg_append ~blob:(page_blob vs) in
      Hashtbl.replace t.states key
        (Spilled
           { sp_digest = vs.vs_digest; sp_period = vs.vs_period; sp_off = off });
      Pvr_obs.incr c_mem_spills;
      if !first then begin
        first := false;
        (* Kill point: the first page is on disk (possibly torn), the slot
           table already points at it, and no committed record references
           it — crashsoak proves recovery from exactly here. *)
        on_phase "spill"
      end)
    candidates;
  List.length candidates

(* When the major heap is over the ceiling, spill every vertex not
   recomputed this epoch; if it is still over, spill the rest.  A spilled
   slot holds no memo tables, so spilling is the only shedding there is.
   [Gc.compact] after each step because [heap_words] measures the major
   heap's footprint, which only shrinks on compaction. *)
let govern t ~on_phase =
  if t.mem_ceiling > 0 then begin
    let over () = heap_words () > t.mem_ceiling in
    if over () then begin
      if spill t ~on_phase ~all:false > 0 then Gc.compact ();
      if over () then begin
        ignore (spill t ~on_phase ~all:true);
        Gc.compact ()
      end
    end;
    Pvr_obs.set_gauge g_mem_resident (resident_states t);
    Pvr_obs.set_gauge g_mem_spilled (spilled_states t)
  end

(* BGP path hunting on a withdrawal can revisit a large share of the graph
   several times over before settling, so the simulator's default
   1M-message dispute cap is too tight for 10k+-AS worlds.  Scale the
   budget with the topology — small worlds keep the old cap, so a genuine
   policy dispute still fails fast. *)
let convergence_budget t = max 1_000_000 (1_000 * List.length t.ases)

let epoch ?(apply = fun _ -> 0) ?(on_phase = fun (_ : string) -> ()) t =
  Pvr_obs.with_span "engine.epoch" @@ fun () ->
  t.epoch_no <- t.epoch_no + 1;
  let period = (t.epoch_no - 1) / t.salt_every in
  let wire_epoch = period + 1 in
  let changes = apply t.sim in
  let msgs = Bgp.Simulator.run ~max_messages:(convergence_budget t) t.sim in
  on_phase "apply";
  let snapshots = collect t in
  on_phase "collect";
  let page_activity = ref false in
  let classified =
    List.map
      (fun sn ->
        let key = vertex_key sn.sn_vertex in
        let dg = snapshot_digest sn in
        match Hashtbl.find_opt t.states key with
        | Some (Resident vs)
          when t.cache && vs.vs_period = period && vs.vs_digest = dg ->
            `Clean (sn, vs)
        | Some (Spilled sp)
          when t.cache && sp.sp_period = period && sp.sp_digest = dg -> (
            (* Clean but cold: the carried outcome lives in its page
               frame.  Read it transiently — it is garbage after this
               epoch's report — so a quiet cold vertex costs O(1) retained
               heap.  An unreadable page degrades to recomputation, which
               the purity contract makes digest-identical. *)
            page_activity := true;
            match page_outcome t sp with
            | Some outcome -> `Carried outcome
            | None ->
                Hashtbl.remove t.states key;
                `Dirty (sn, dg, None))
        | Some (Spilled _) ->
            (* The vertex changed while cold: its page holds a stale
               outcome and no memo tables were ever paged, so recompute
               from scratch and re-admit it resident. *)
            page_activity := true;
            Pvr_obs.incr c_mem_unspills;
            Hashtbl.remove t.states key;
            `Dirty (sn, dg, None)
        | Some (Resident vs) -> `Dirty (sn, dg, Some vs)
        | None -> `Dirty (sn, dg, None))
      snapshots
  in
  if !page_activity then on_phase "unspill";
  let dirty =
    List.filter_map
      (function
        | `Dirty (sn, dg, prev) -> Some (sn, dg, prev)
        | `Clean _ | `Carried _ -> None)
      classified
  in
  (* Only a cache-on engine keeps memo tables, so a kept table is
     reusable as it stands within its period and recycled across one. *)
  let caches =
    Array.of_list
      (List.map
         (fun (_, _, prev) ->
           match prev with
           | Some { vs_cache = Some vc; vs_period; _ } ->
               if vs_period = period then vc else recycle_vcache t vc ~period
           | _ -> fresh_vcache t ~period)
         dirty)
  in
  (* Outcome order — and therefore the report digest — is the dirty
     order, whichever worker ran which round. *)
  let results =
    run_rounds t ~wire_epoch
      (Array.of_list (List.mapi (fun i (sn, _, _) -> (sn, caches.(i))) dirty))
  in
  on_phase "verify";
  (* Merge back in vertex order; record fresh state for recomputed vertices,
     carry the previous outcome for clean ones. *)
  let i = ref 0 in
  let outcomes =
    List.map
      (function
        | `Clean ((_ : snapshot), vs) ->
            { vs.vs_outcome with vx_recomputed = false }
        | `Carried outcome -> outcome
        | `Dirty (sn, dg, prev) ->
            let k = !i in
            incr i;
            let outcome = results.(k) in
            let vc = if t.cache then Some caches.(k) else None in
            (match prev with
            | Some vs ->
                vs.vs_digest <- dg;
                vs.vs_period <- period;
                vs.vs_outcome <- outcome;
                vs.vs_cache <- vc;
                vs.vs_touched <- t.epoch_no
            | None ->
                Hashtbl.replace t.states (vertex_key sn.sn_vertex)
                  (Resident
                     {
                       vs_digest = dg;
                       vs_period = period;
                       vs_outcome = outcome;
                       vs_cache = vc;
                       vs_touched = t.epoch_no;
                     }));
            outcome)
      classified
  in
  (* Prune only state left over from earlier salt periods: a vertex that
     flaps away and back within the current period keeps its state (a
     snapshot match skips it outright, a partial match reuses its memo
     tables), while rotation invalidates the tables anyway. *)
  let live_keys = Hashtbl.create (List.length snapshots) in
  List.iter
    (fun sn -> Hashtbl.replace live_keys (vertex_key sn.sn_vertex) ())
    snapshots;
  let dead =
    Hashtbl.fold
      (fun k s acc ->
        let p =
          match s with
          | Resident vs -> vs.vs_period
          | Spilled sp -> sp.sp_period
        in
        if p < period && not (Hashtbl.mem live_keys k) then k :: acc else acc)
      t.states []
  in
  List.iter (Hashtbl.remove t.states) dead;
  govern t ~on_phase;
  let n_vertices = List.length snapshots in
  let n_dirty = List.length dirty in
  let n_skipped = n_vertices - n_dirty in
  Pvr_obs.incr c_epochs;
  Pvr_obs.add c_rounds n_dirty;
  Pvr_obs.add c_skipped n_skipped;
  if Pvr_obs.enabled () then begin
    let s = Gc.quick_stat () in
    Pvr_obs.set_gauge g_heap_words s.Gc.heap_words;
    Pvr_obs.set_gauge g_allocated_words
      (int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words))
  end;
  let detected =
    List.fold_left (fun n o -> if o.vx_detected then n + 1 else n) 0 outcomes
  in
  let convicted =
    List.fold_left (fun n o -> if o.vx_convicted then n + 1 else n) 0 outcomes
  in
  (* Hash-chain the canonical epoch record.  Everything hashed here is
     independent of jobs and of the cache setting (dirty/skipped are not
     included), which is exactly the determinism contract. *)
  let canonical =
    String.concat "\n"
      (Printf.sprintf "epoch %d period %d changes %d msgs %d vertices %d"
         t.epoch_no period changes msgs n_vertices
      :: List.map (fun o -> o.vx_line) outcomes)
  in
  t.chain <- C.Sha256.digest_hex (t.chain ^ "\n" ^ canonical);
  {
    ep_epoch = t.epoch_no;
    ep_period = period;
    ep_changes = changes;
    ep_msgs = msgs;
    ep_vertices = n_vertices;
    ep_dirty = n_dirty;
    ep_skipped = n_skipped;
    ep_detected = detected;
    ep_convicted = convicted;
    ep_outcomes = outcomes;
    ep_digest = t.chain;
  }

(* ---- resume ---------------------------------------------------------------- *)

(* Fast-forward: apply the epoch's update batch and converge the simulator
   without verifying anything.  Resume replays the (deterministic) churn
   stream through this to rebuild RIB state cheaply — no crypto, no DRBG
   draws from the engine's own machinery. *)
let skip_epoch ?(apply = fun _ -> 0) t =
  t.epoch_no <- t.epoch_no + 1;
  let changes = apply t.sim in
  let msgs = Bgp.Simulator.run ~max_messages:(convergence_budget t) t.sim in
  (changes, msgs)

(* The fingerprint of every RIB the engine can see: ["as:<asn>"] and the
   AS's digest for each AS whose RIB holds anything, in ASN order.  Each
   RIB caches its digest and rehashes only the entries the simulator
   marked, so [rib_digest] costs O(dirty entries + dirty ASes' entries);
   [rib_digest_full] recomputes everything and is the oracle the tests
   hold it to. *)
let world_digest t as_digest =
  C.Sha256.digest_parts_hex
    (List.fold_right
       (fun asn acc ->
         match as_digest (Bgp.Simulator.rib t.sim asn) with
         | "" -> acc
         | d -> ("as:" ^ Bgp.Asn.to_string asn) :: d :: acc)
       t.ases [])

let rib_digest t = world_digest t Bgp.Rib.digest
let rib_digest_full t = world_digest t Bgp.Rib.digest_full

module Checkpoint = struct
  let run_id t = C.Sha256.digest_hex ("pvr-engine-run-id|" ^ t.secret)

  let advance t ~epoch ~chain ~rib =
    if t.epoch_no <> epoch then
      Error
        (Printf.sprintf "engine at epoch %d, journal record is for epoch %d"
           t.epoch_no epoch)
    else if rib_digest t <> rib then
      Error "replayed simulator state diverges from journal RIB digest"
    else begin
      t.chain <- chain;
      Ok ()
    end
end
