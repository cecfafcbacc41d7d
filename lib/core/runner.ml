module Bgp = Pvr_bgp
module C = Pvr_crypto
module Obs = Pvr_obs

(* Every round counts its protocol messages and the size of its largest
   commitment message.  The counts are always kept (the report is built
   from them) and added to these counters when metrics are on. *)
let obs_messages = Obs.counter "runner.messages"
let obs_commit_bytes = Obs.counter "runner.commit_bytes"
let obs_rounds = Obs.counter "runner.rounds"

type report = {
  raised : (Adversary.detector * Evidence.t) list;
  judged : (Adversary.detector * Evidence.t * Judge.verdict) list;
  detected : bool;
  convicted : bool;
  exonerated : bool;
  messages : int;
  commit_bytes : int;
}

let announce_of_route keyring ~provider ~prover ~epoch route =
  Wire.sign keyring ~as_:provider ~encode:Wire.encode_announce
    { Wire.ann_epoch = epoch; ann_to = prover; ann_route = route }

type fault_profile = {
  fp_policy : Pvr_net.policy;
  fp_links : ((Bgp.Asn.t * Bgp.Asn.t) * Pvr_net.policy) list;
  fp_retry_interval : int;
  fp_retry_budget : int;
  fp_gossip_rounds : int;
  fp_max_ticks : int;
}

let perfect_faults =
  {
    fp_policy = Pvr_net.perfect;
    fp_links = [];
    fp_retry_interval = 2;
    fp_retry_budget = 3;
    fp_gossip_rounds = 1;
    fp_max_ticks = 400;
  }

type net_report = {
  base : report;
  delivered_announces : Bgp.Asn.t list;
  acked_announces : Bgp.Asn.t list;
  commit_holders : Bgp.Asn.t list;
  direct_commits : Bgp.Asn.t list;
  disclosed_to : Bgp.Asn.t list;
  beneficiary_disclosed : bool;
  net_sends : int;
  net_drops : int;
  net_retries : int;
  net_timeouts : int;
  gossip_sends : int;
  gossip_drops : int;
  ticks : int;
}

(* ---- sign: the draft's statements, batched per signer (§3.8) ----------- *)

type memo = {
  ann_memo : (Bgp.Asn.t * string, Wire.announce Wire.signed) Hashtbl.t;
  cmt_memo : (Bgp.Asn.t * string, Wire.commit Wire.signed) Hashtbl.t;
  exp_memo : (Bgp.Asn.t * string, Wire.export Wire.signed) Hashtbl.t;
  on_lookup : hit:bool -> unit;
}

let memo ?(on_lookup = fun ~hit:_ -> ()) () =
  {
    ann_memo = Hashtbl.create 32;
    cmt_memo = Hashtbl.create 8;
    exp_memo = Hashtbl.create 8;
    on_lookup;
  }

let clear_memo m =
  Hashtbl.reset m.ann_memo;
  Hashtbl.reset m.cmt_memo;
  Hashtbl.reset m.exp_memo

let memo_signatures m =
  let add tbl acc =
    Hashtbl.fold
      (fun (signer, enc) (s : _ Wire.signed) acc ->
        (Bgp.Asn.to_string signer ^ "|" ^ enc, s.Wire.signature) :: acc)
      tbl acc
  in
  add m.ann_memo (add m.cmt_memo (add m.exp_memo []))

type draft = Min of Proto_min.draft | Graph of Proto_graph.draft

type round = {
  draft : draft;
  announces : (Bgp.Asn.t * Wire.announce Wire.signed) list;
  commit : Wire.commit Wire.signed;
  commit_b : Wire.commit Wire.signed;
  export : Wire.export Wire.signed option;
  answer : Wire.export Wire.signed option;
}

let prover_of = function
  | Min d -> d.Proto_min.dr_prover
  | Graph d -> d.Proto_graph.dr_prover

let beneficiary_of = function
  | Min d -> d.Proto_min.dr_beneficiary
  | Graph d -> d.Proto_graph.dr_beneficiary

let min_draft r =
  match r.draft with
  | Min d -> d
  | Graph _ -> invalid_arg "Runner: a graph round has no min disclosures"

(* The disclosures are built from the draft when asked for, so a round
   waiting for its check holds no opening lists. *)
let commit_for r who =
  if Bgp.Asn.equal who (beneficiary_of r.draft) then r.commit_b else r.commit

let neighbor_disclosures r =
  let d = min_draft r in
  List.map
    (fun (n, route) ->
      if List.exists (Bgp.Asn.equal n) d.Proto_min.dr_withheld then (n, None)
      else
        let nd_index = Bgp.Route.path_length route in
        let _, nd_opening = List.nth d.Proto_min.dr_committed (nd_index - 1) in
        (n, Some { Proto_common.nd_index; nd_opening }))
    d.Proto_min.dr_inputs

let beneficiary_disclosure r =
  {
    Proto_common.bd_openings =
      Proto_min.openings (min_draft r).Proto_min.dr_committed_b;
    bd_export = r.export;
  }

(* One party's disclosure, as the operator's checks take it. *)
type disclosure =
  | Min_opening of Proto_common.neighbor_disclosure  (* to a provider *)
  | Min_openings of Proto_common.beneficiary_disclosure  (* to B *)
  | Graph_view of {
      vertices : Proto_graph.disclosure list;
      export : Wire.export Wire.signed option;  (* B's only *)
    }

(* Every party's disclosure, the providers' in input order and then B's;
   [None] = A withholds it. *)
let disclosures r =
  match r.draft with
  | Min d ->
      List.map
        (fun (n, nd) -> (n, Option.map (fun nd -> Min_opening nd) nd))
        (neighbor_disclosures r)
      @ [ (d.Proto_min.dr_beneficiary,
            Some (Min_openings (beneficiary_disclosure r))) ]
  | Graph d ->
      let open Proto_graph in
      let view ~role ~export viewer =
        let vertices = disclose ~role d ~alpha:d.dr_alpha ~viewer in
        (viewer, Some (Graph_view { vertices; export }))
      in
      let len route = `Provider (Bgp.Route.path_length route) in
      List.map (fun (n, r) -> view ~role:(len r) ~export:None n) d.dr_inputs
      @ [ view ~role:`Beneficiary ~export:r.export d.dr_beneficiary ]

let respond r ~accused:_ challenge =
  let answer f = Option.fold ~none:Judge.No_response ~some:f in
  match (r.draft, challenge) with
  | Min { dr_answer = Proto_min.Stonewall; _ }, _
  | Graph _, Judge.Produce_opening _ ->
      Judge.No_response
  | _, Judge.Produce_export _ ->
      answer (fun e -> Judge.Export_response e) r.answer
  | Min d, Judge.Produce_opening { index; _ } ->
      answer
        (fun o -> Judge.Opening_response o)
        (List.assoc_opt index (Proto_min.openings d.Proto_min.dr_committed))

type pool = { run : 'a. (unit -> 'a) array -> 'a array }

let inline = { run = (fun tasks -> Array.map (fun f -> f ()) tasks) }

(* A statement the round needs signed: a memo hit, or a draft signed by
   this call's batch whose signed form enters the memo when first asked
   for. *)
type 'a stmt =
  | Hit of 'a Wire.signed
  | Miss of 'a Wire.draft * 'a Wire.signed Lazy.t

let lookup memo tbl key draft =
  match Hashtbl.find_opt tbl key with
  | Some s ->
      memo.on_lookup ~hit:true;
      Hit s
  | None ->
      memo.on_lookup ~hit:false;
      let d = draft () in
      let enter s = Hashtbl.replace tbl key s; s in
      Miss (d, lazy (enter (Wire.signed d)))

(* Keyed by (signer, payload encoding); the encoding a miss signs is the
   key's own string, so it keeps no second copy. *)
let lookup_signed memo tbl ~as_ ~encode payload =
  let enc = encode payload in
  lookup memo tbl (as_, enc) (fun () ->
      Wire.draft ~as_ ~encode:(fun _ -> enc) payload)

let pending signer = function
  | Miss (d, _) -> [ (signer, Wire.Pending d) ]
  | Hit _ -> []

let settle = function Hit s -> s | Miss (_, s) -> Lazy.force s

(* One batch per signer; batches are independent, so the pool may run
   them in any order.  A statement listed twice shares one leaf. *)
let sign_batches pool keyring pendings =
  let by_signer = Hashtbl.create 16 in
  List.iter
    (fun (signer, p) ->
      Hashtbl.replace by_signer signer
        (p :: Option.value (Hashtbl.find_opt by_signer signer) ~default:[]))
    (List.concat (Array.to_list pendings));
  Hashtbl.fold
    (fun _ batch acc -> (fun () -> Wire.sign_batch keyring batch) :: acc)
    by_signer []
  |> Array.of_list |> pool.run |> ignore

(* An export embeds its signed provenance announce, so it is drafted after
   the announces are signed.  Its memo key leaves the provenance out: it is
   (provenance signer, export encoding without provenance). *)
let export_stmt memo ~prover ~beneficiary ~epoch announces (route, provenance)
    =
  let provenance =
    match provenance with
    | Proto_min.Input n -> List.assoc n announces
    | Proto_min.Forged a -> a
  in
  let payload =
    {
      Wire.exp_epoch = epoch;
      exp_to = beneficiary;
      exp_route = route;
      exp_provenance = Some provenance;
    }
  in
  lookup memo memo.exp_memo
    ( provenance.Wire.signer,
      Wire.encode_export { payload with Wire.exp_provenance = None } )
    (fun () -> Wire.draft ~as_:prover ~encode:Wire.encode_export payload)

let sign ?(pool = inline) keyring drafts =
  let per_draft f =
    pool.run (Array.mapi (fun i (memo, d) () -> f i memo d) drafts)
  in
  let header = function
    | Min d ->
        ( d.Proto_min.dr_epoch, d.Proto_min.dr_prefix, Proto_min.scheme,
          d.Proto_min.dr_inputs )
    | Graph d ->
        ( d.Proto_graph.dr_epoch, d.Proto_graph.dr_prefix, Proto_graph.scheme,
          d.Proto_graph.dr_inputs )
  in
  let announces =
    per_draft (fun _ memo d ->
        let epoch, _, _, inputs = header d in
        List.map
          (fun (n, r) ->
            ( n,
              lookup_signed memo memo.ann_memo ~as_:n
                ~encode:Wire.encode_announce
                { Wire.ann_epoch = epoch; ann_to = prover_of d; ann_route = r }
            ))
          inputs)
  in
  sign_batches pool keyring
    (Array.map (List.concat_map (fun (n, st) -> pending n st)) announces);
  let stmts =
    per_draft (fun i memo d ->
        let epoch, prefix, scheme, _ = header d in
        let prover = prover_of d in
        let announces =
          List.map (fun (n, st) -> (n, settle st)) announces.(i)
        in
        let commit cmt_commitments =
          lookup_signed memo memo.cmt_memo ~as_:prover
            ~encode:Wire.encode_commit
            {
              Wire.cmt_epoch = epoch;
              cmt_prefix = prefix;
              cmt_scheme = scheme;
              cmt_commitments;
            }
        in
        let export =
          Option.map
            (export_stmt memo ~prover ~beneficiary:(beneficiary_of d) ~epoch
               announces)
        in
        match d with
        | Graph d ->
            let c = commit [ Proto_graph.root d ] in
            let e = export d.Proto_graph.dr_export in
            (announces, c, c, e, e)
        | Min d ->
            let open Proto_min in
            let digests =
              List.map (fun ((c : C.Commitment.commitment), _) -> (c :> string))
            in
            let c = commit (digests d.dr_committed) in
            let c_b =
              if d.dr_committed_b == d.dr_committed then c
              else commit (digests d.dr_committed_b)
            in
            let e = export d.dr_export in
            let answer =
              match d.dr_answer with
              | Stand_by x when x != d.dr_export -> export x
              | _ -> e
            in
            (announces, c, c_b, e, answer))
  in
  sign_batches pool keyring
    (Array.mapi
       (fun i (_, c, c_b, e, answer) ->
         let prover = prover_of (snd drafts.(i)) in
         let opt = Option.fold ~none:[] ~some:(pending prover) in
         pending prover c @ pending prover c_b @ opt e @ opt answer)
       stmts);
  Array.mapi
    (fun i (announces, c, c_b, e, answer) ->
      {
        draft = snd drafts.(i);
        announces;
        commit = settle c;
        commit_b = settle c_b;
        export = Option.map settle e;
        answer = Option.map settle answer;
      })
    stmts

(* ---- check: deliver, then every party checks --------------------------------

   Under [Net], every §3.3 wire message of a round travels as a [net_msg]
   through a {!Pvr_net.Reliable} stop-and-wait channel and gossip digests
   travel over a separate (unacknowledged) channel; a message lost past the
   retry budget makes the waiting party raise {!Evidence.Timeout} around
   the omission claim it would otherwise have proven directly.  [Direct]
   delivers everything in order without simulating ticks. *)

type transport = Direct | Net of fault_profile

type net_msg =
  | Net_announce
  | Net_commit of Wire.commit Wire.signed
  | Net_disclosure of disclosure
  | Net_disclosure_request

type net = {
  faults : fault_profile;
  net : net_msg Pvr_net.Reliable.envelope Pvr_net.t;
  conn : net_msg Pvr_net.Reliable.conn;
  gnet : Gossip.digest Pvr_net.t;
}

type link = {
  channel : net option;
  providers : Bgp.Asn.t list;
  arrived : Bgp.Asn.t list;
}

let quiesce n handler =
  ignore
    (Pvr_net.Reliable.run ~max_ticks:n.faults.fp_max_ticks n.conn ~handler ())

let connect transport rng ~prover items =
  let providers = List.map fst items in
  let channel, arrived =
    match transport with
    | Direct -> (None, items)
    | Net faults ->
        let rng = Lazy.force rng in
        let channel label =
          Pvr_net.create ~policy:faults.fp_policy ~links:faults.fp_links
            ~rng:(C.Drbg.split rng label) ()
        in
        let net = channel "net" in
        let gnet = channel "gossip-net" in
        let conn =
          Pvr_net.Reliable.create ~interval:faults.fp_retry_interval
            ~budget:faults.fp_retry_budget net
        in
        List.iter
          (fun p -> Pvr_net.Reliable.send conn ~src:p ~dst:prover Net_announce)
          providers;
        let n = { faults; net; conn; gnet } in
        let arrived = ref [] in
        quiesce n (fun ~src ~dst -> function
          | Net_announce
            when Bgp.Asn.equal dst prover
                 && not (List.mem_assoc src !arrived) ->
              arrived := (src, List.assoc src items) :: !arrived
          | _ -> ());
        (Some n, List.rev !arrived)
  in
  ({ channel; providers; arrived = List.map fst arrived }, arrived)

let check ?(gossip = `Clique) ?ledger ?verified keyring link r =
  let ds = disclosures r in
  let announces = Hashtbl.of_seq (List.to_seq r.announces) in
  let prover = prover_of r.draft and beneficiary = beneficiary_of r.draft in
  let providers = link.providers in
  let participants = providers @ [ beneficiary ] in
  let messages = ref 0 and commit_bytes = ref 0 in
  let g = Gossip.create keyring in
  let raised = ref [] in
  let raise_ who e = raised := (who, e) :: !raised in
  (* Receiver state: first-wins, so duplicate deliveries are idempotent. *)
  let got = Hashtbl.create 8 in
  let direct_commit = Hashtbl.create 8 in
  let receive_commit who commit =
    Hashtbl.replace direct_commit who ();
    Option.iter
      (raise_ Adversary.Gossip)
      (Gossip.receive g ~holder:who commit)
  in
  let receive who d = if not (Hashtbl.mem got who) then Hashtbl.add got who d in
  let gossip_round ?net () =
    let edges =
      match gossip with
      | `Clique -> Gossip.clique_edges participants
      | `Ring -> Gossip.ring_edges participants
      | `None -> []
    in
    List.iter
      (raise_ Adversary.Gossip)
      (Gossip.run_round ?net g ~edges)
  in
  (* Each party checks against the commitment it holds: its own under
     [Direct], the first it accepted (directly or via gossip) under [Net].
     A provider only accuses over silence when its own announce was
     acknowledged — otherwise, for all it knows, A never received the route
     and owes it nothing (Accuracy).  Over a lossy network, silence is
     proven by the retries a timeout records. *)
  let view, acked, omission =
    match link.channel with
    | None -> ((fun who -> Some (commit_for r who)), (fun _ -> true), Fun.id)
    | Some n ->
        let c = r.commit.Wire.payload in
        ( (fun who ->
            Gossip.view g ~holder:who ~signer:prover ~epoch:c.Wire.cmt_epoch
              ~prefix:c.Wire.cmt_prefix ~scheme:c.Wire.cmt_scheme),
          (fun p -> Pvr_net.Reliable.acked n.conn ~src:p ~dst:prover Net_announce),
          fun claim ->
            Evidence.Timeout { claim; retries = n.faults.fp_retry_budget } )
  in
  (match link.channel with
  | None ->
      (* Equal commit bytes everywhere can raise no equivocation, and gossip
         would only record zero-bit receptions: skip it. *)
      let c = commit_for r beneficiary in
      if List.exists (fun who -> commit_for r who != c) participants then begin
        List.iter (fun w -> receive_commit w (commit_for r w)) participants;
        gossip_round ()
      end;
      List.iter (fun (who, d) -> Option.iter (receive who) d) ds
  | Some n ->
      let send ~dst msg = Pvr_net.Reliable.send n.conn ~src:prover ~dst msg in
      let handler ~src ~dst = function
        | Net_commit commit -> receive_commit dst commit
        | Net_disclosure d when not (Bgp.Asn.equal dst prover) -> receive dst d
        | Net_disclosure_request when Bgp.Asn.equal dst prover ->
            (* The prover answers re-requests according to its behaviour: a
               withheld opening stays withheld (stonewalling), anything it
               was willing to send it sends again. *)
            Option.iter
              (fun d -> send ~dst:src (Net_disclosure d))
              (Option.join (List.assoc_opt src ds))
        | _ -> ()
      in
      (* A broadcasts its (per-recipient) commitment. *)
      List.iter
        (fun who ->
          let commit = commit_for r who in
          commit_bytes :=
            max !commit_bytes
              (String.length (Wire.encode_commit commit.Wire.payload));
          send ~dst:who (Net_commit commit))
        participants;
      quiesce n handler;
      (* Gossip rounds over their own lossy channel. *)
      for _ = 1 to n.faults.fp_gossip_rounds do
        gossip_round ~net:n.gnet ()
      done;
      (* A pushes disclosures to everyone it is willing to serve. *)
      List.iter
        (fun (who, d) ->
          Option.iter (fun d -> send ~dst:who (Net_disclosure d)) d)
        ds;
      quiesce n handler;
      (* Parties still owed a disclosure chase it with bounded re-requests
         before accusing: B once it holds a commitment, a provider once its
         announce was acknowledged too. *)
      let rec chase attempt =
        let want =
          List.filter
            (fun who ->
              view who <> None
              && (Bgp.Asn.equal who beneficiary || acked who)
              && not (Hashtbl.mem got who))
            participants
        in
        if attempt <= n.faults.fp_retry_budget && want <> [] then begin
          List.iter
            (fun who ->
              Pvr_net.Reliable.send n.conn ~src:who ~dst:prover
                Net_disclosure_request)
            want;
          quiesce n handler;
          chase (attempt + 1)
        end
      in
      chase 1;
      (* [messages] counts protocol payload transmissions, including
         retransmissions: every reliable data frame plus every gossip
         digest. *)
      messages :=
        Pvr_net.Reliable.data_sends n.conn
        + (Pvr_net.stats n.gnet).Pvr_net.sends);
  (* The ledger accounts each opening a party received as the bit it opens
     against the commitment that party was sent.  A check of that same
     commitment reports the bits it opens, so none is opened twice.  Graph
     disclosures are not accounted yet. *)
  let record who fact =
    Option.iter (fun l -> Leakage.Ledger.record l ~viewer:who fact) ledger
  in
  let bit who index value = record who (Leakage.Knows_bit { index; value }) in
  let sent who commit = commit == commit_for r who in
  let on_bit who commit =
    if ledger <> None && sent who commit then Some (bit who) else None
  in
  let account who d =
    let unchecked =
      ledger <> None
      && Option.fold ~none:true ~some:(fun c -> not (sent who c)) (view who)
    in
    let openings os =
      if unchecked then begin
        let opening_bit = Proto_common.opening_bit_at (commit_for r who) in
        List.iter
          (fun (index, o) -> Option.iter (bit who index) (opening_bit ~index o))
          os
      end
    in
    match d with
    | Min_opening { nd_index; nd_opening } ->
        openings [ (nd_index, nd_opening) ]
    | Min_openings { bd_openings; bd_export } ->
        openings bd_openings;
        Option.iter
          (fun e ->
            let route = e.Wire.payload.Wire.exp_route in
            let provider = route.Bgp.Route.next_hop in
            record who (Leakage.Knows_route { provider; route }))
          bd_export
    | Graph_view _ -> ()
  in
  (* Every party checks what it received with its operator's checks, or
     accuses A over its silence. *)
  List.iter
    (fun who ->
      let is_b = Bgp.Asn.equal who beneficiary in
      let d = Hashtbl.find_opt got who in
      let on_bit commit = on_bit who commit in
      let detector =
        if is_b then Adversary.Beneficiary else Adversary.Provider who
      in
      List.iter (raise_ detector)
        (match (view who, d, Hashtbl.find_opt announces who) with
        | Some commit, Some (Min_openings disclosure), _ ->
            Proto_min.check_beneficiary ?on_bit:(on_bit commit) ?verified
              keyring ~me:who ~commit ~disclosure
        | Some commit, Some (Min_opening nd), Some my_announce ->
            Proto_min.check_neighbor ?on_bit:(on_bit commit) keyring ~me:who
              ~my_announce ~commit ~disclosure:(Some nd)
        | Some commit, Some (Graph_view { vertices; export }), _ when is_b ->
            Proto_graph.check_beneficiary keyring ~me:who ~commit
              ~disclosures:vertices ~export
        | Some commit, Some (Graph_view { vertices; _ }), Some my_announce ->
            Proto_graph.check_provider keyring ~me:who ~my_announce ~commit
              ~disclosures:vertices
        | Some commit, None, _ when is_b ->
            (* Total silence: B holds a commitment but never received the
               opening set.  The judge settles whether anything was owed. *)
            [
              omission
                (Evidence.Missing_export_claim
                   { commit; openings = []; claimant = who });
            ]
        | Some commit, None, Some announce when acked who ->
            [
              omission
                (Evidence.Missing_disclosure_claim
                   { commit; announce; claimant = who });
            ]
        | _ -> []);
      Option.iter (account who) d)
    participants;
  Obs.incr obs_rounds;
  Obs.add obs_messages !messages;
  Obs.add obs_commit_bytes !commit_bytes;
  let raised = List.rev !raised in
  let judged =
    List.map
      (fun (who, e) ->
        (who, e, Judge.evaluate ?ledger keyring ~respond:(respond r) e))
      raised
  in
  let verdict v = List.exists (fun (_, _, v') -> v' = v) judged in
  let stat f = match link.channel with None -> 0 | Some n -> f n in
  let sends st = st.Pvr_net.sends in
  let drops st = st.Pvr_net.drops + st.Pvr_net.partition_drops in
  {
    base =
      {
        raised;
        judged;
        detected = raised <> [];
        convicted = verdict Judge.Guilty;
        exonerated = verdict Judge.Exonerated;
        messages = !messages;
        commit_bytes = !commit_bytes;
      };
    delivered_announces = link.arrived;
    acked_announces = List.filter acked providers;
    commit_holders = List.filter (fun who -> view who <> None) participants;
    direct_commits =
      (if Option.is_none link.channel then participants
       else List.filter (Hashtbl.mem direct_commit) participants);
    disclosed_to = List.filter (Hashtbl.mem got) providers;
    beneficiary_disclosed = Hashtbl.mem got beneficiary;
    net_sends = stat (fun n -> sends (Pvr_net.stats n.net));
    net_drops = stat (fun n -> drops (Pvr_net.stats n.net));
    net_retries = stat (fun n -> Pvr_net.Reliable.retries n.conn);
    net_timeouts = stat (fun n -> Pvr_net.Reliable.failures n.conn);
    gossip_sends = stat (fun n -> sends (Pvr_net.stats n.gnet));
    gossip_drops = stat (fun n -> drops (Pvr_net.stats n.gnet));
    ticks = stat (fun n -> Pvr_net.now n.net + Pvr_net.now n.gnet);
  }

(* ---- one standalone round ------------------------------------------------ *)

(* The round's one admission path, then the draft over the admitted
   (provider, route) inputs, signed.  Input-signature checks are the
   per-round RSA bill; they are batched.  The memo holds the admitted
   announces, so the sign phase does not sign them again. *)
let admit_and_sign keyring ~max_path_len ~prover ~epoch ~prefix inputs draft =
  let memo = memo () in
  let inputs =
    List.combine inputs
      (Proto_common.valid_inputs keyring ~prover ~epoch ~prefix inputs)
    |> List.filter_map (fun ((a : Wire.announce Wire.signed), ok) ->
           let route = a.Wire.payload.Wire.ann_route in
           if ok && Bgp.Route.path_length route <= max_path_len then (
             let key = (a.Wire.signer, Wire.encode_announce a.Wire.payload) in
             Hashtbl.replace memo.ann_memo key a;
             Some (a.Wire.signer, route))
           else None)
  in
  (sign keyring [| (memo, draft inputs) |]).(0)

let prove ?(max_path_len = Proto_min.default_max_path_len) ?(comply = false)
    ?(behaviour = Adversary.Honest) rng keyring ~prover ~beneficiary ~epoch
    ~prefix ~inputs =
  admit_and_sign keyring ~max_path_len ~prover ~epoch ~prefix inputs
    (fun inputs ->
      let plan =
        { Adversary.rp_behaviour = behaviour; rp_comply = comply;
          rp_coalition = 1 }
      in
      Min
        (Adversary.perturb plan
           (Proto_min.draft ~max_path_len keyring
              ~committer:(fun ~tag:_ -> List.map (C.Commitment.commit_bit rng))
              ~prover ~beneficiary ~epoch ~prefix ~inputs)))

(* One standalone round over [Net faults]: the providers sign and send
   their announces, [prove] drafts and signs A's round over the ones that
   arrived, then every party checks.  [connect] splits the channel
   generators off [rng] before [prove] draws from it. *)
let standalone ?gossip ?ledger ~faults rng keyring ~prover ~epoch ~routes prove
    =
  let announces =
    List.map
      (fun (provider, route) ->
        (provider, announce_of_route keyring ~provider ~prover ~epoch route))
      routes
  in
  let link, arrived = connect (Net faults) (lazy rng) ~prover announces in
  check ?gossip ?ledger keyring link (prove (List.map snd arrived))

let min_round_faulty ?gossip ?max_path_len ?(faults = perfect_faults) ?ledger
    ?comply behaviour rng keyring ~prover ~beneficiary ~epoch ~prefix ~routes =
  Obs.with_span "runner.min_round" @@ fun () ->
  standalone ?gossip ?ledger ~faults rng keyring ~prover ~epoch ~routes
    (fun inputs ->
      prove ?max_path_len ?comply ~behaviour rng keyring ~prover ~beneficiary
        ~epoch ~prefix ~inputs)

let min_round ?gossip ?max_path_len behaviour rng keyring ~prover ~beneficiary
    ~epoch ~prefix ~routes =
  (min_round_faulty ?gossip ?max_path_len behaviour rng keyring ~prover
     ~beneficiary ~epoch ~prefix ~routes)
    .base

let graph_round ?(max_path_len = Proto_min.default_max_path_len) rng keyring
    ~prover ~beneficiary ~epoch ~prefix ~promise ~routes =
  Obs.with_span "runner.graph_round" @@ fun () ->
  let neighbors = List.map fst routes in
  let rfg = Pvr_rfg.Promise.reference_rfg promise ~beneficiary ~neighbors in
  let alpha = Access_control.for_promise promise ~beneficiary ~neighbors in
  (standalone ~faults:perfect_faults rng keyring ~prover ~epoch ~routes
     (fun inputs ->
       admit_and_sign keyring ~max_path_len ~prover ~epoch ~prefix inputs
         (fun inputs ->
           Graph
             (Proto_graph.draft ~max_path_len rng ~prover ~beneficiary ~epoch
                ~prefix ~rfg ~alpha ~inputs))))
    .base

(* Whether the fault schedule left the behaviour's witnessing messages
   intact, i.e. whether §2.3 Detection must have fired this round.  Each
   detector listed by {!Adversary.expected_detectors} (computed over the
   inputs that actually reached A) is checked against what it needed to
   see: its commitment, its disclosure, an acknowledged announce, or an
   unbroken gossip exchange. *)
let detection_expected behaviour ~beneficiary ~routes (r : net_report) =
  let mem who = List.exists (Bgp.Asn.equal who) in
  let inputs =
    List.filter_map
      (fun p ->
        Option.map
          (fun route -> (p, Bgp.Route.path_length route))
          (List.assoc_opt p routes))
      r.delivered_announces
  in
  let dets = Adversary.expected_detectors behaviour ~inputs in
  let witnessed = function
    | Adversary.Beneficiary ->
        mem beneficiary r.commit_holders
        && (behaviour = Adversary.Suppress_export
            (* total silence convicts the stonewaller just as well *)
           || r.beneficiary_disclosed)
    | Adversary.Provider p ->
        mem p r.commit_holders
        &&
        if behaviour = Adversary.Refuse_disclosure then
          mem p r.acked_announces
        else mem p r.disclosed_to
    | Adversary.Gossip ->
        (* Sufficient for a clique round: both halves of the split hold
           their commitment directly and no digest was lost, so the direct
           edge between them must surface the conflict. *)
        r.gossip_drops = 0
        && mem beneficiary r.direct_commits
        && List.exists (fun (p, _) -> mem p r.direct_commits) inputs
  in
  List.exists witnessed dets
