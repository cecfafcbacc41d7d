module Bgp = Pvr_bgp
module C = Pvr_crypto
module Obs = Pvr_obs

(* Tally keys: every round counts its protocol messages and the size of the
   largest commitment message through the obs subsystem.  The tally is
   always live (the report is built from it); [Obs.Tally.publish] mirrors
   the totals into the global "runner.*" counters when metrics are on. *)
let k_messages = "runner.messages"
let k_commit_bytes = "runner.commit_bytes"

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

let finish ?ledger keyring ~respond raised ~tally =
  Obs.incr obs_rounds;
  Obs.Tally.publish tally;
  let judged =
    List.map
      (fun (who, e) -> (who, e, Judge.evaluate ?ledger keyring ~respond e))
      raised
  in
  {
    raised;
    judged;
    detected = raised <> [];
    convicted = List.exists (fun (_, _, v) -> v = Judge.Guilty) judged;
    exonerated = List.exists (fun (_, _, v) -> v = Judge.Exonerated) judged;
    messages = Obs.Tally.get tally k_messages;
    commit_bytes = Obs.Tally.get tally k_commit_bytes;
  }

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

type round = {
  draft : Proto_min.draft;
  announces : (Bgp.Asn.t * Wire.announce Wire.signed) list;
  commit : Wire.commit Wire.signed;
  commit_b : Wire.commit Wire.signed;
  export : Wire.export Wire.signed option;
  answer : Wire.export Wire.signed option;
}

(* The disclosures are built from the draft when asked for, so a round
   waiting for its check holds no opening lists. *)
let commit_for r who =
  if Bgp.Asn.equal who r.draft.Proto_min.dr_beneficiary then r.commit_b
  else r.commit

let neighbor_disclosures r =
  let d = r.draft in
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
      Proto_min.openings r.draft.Proto_min.dr_committed_b;
    bd_export = r.export;
  }

let respond r ~accused:_ challenge =
  match (r.draft.Proto_min.dr_answer, challenge) with
  | Proto_min.Stonewall, _ -> Judge.No_response
  | Proto_min.Stand_by _, Judge.Produce_export _ -> begin
      match r.answer with
      | Some e -> Judge.Export_response e
      | None -> Judge.No_response
    end
  | Proto_min.Stand_by _, Judge.Produce_opening { index; _ } -> begin
      match
        List.assoc_opt index (Proto_min.openings r.draft.Proto_min.dr_committed)
      with
      | Some o -> Judge.Opening_response o
      | None -> Judge.No_response
    end

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
let export_stmt memo (d : Proto_min.draft) announces (route, provenance) =
  let provenance =
    match provenance with
    | Proto_min.Input n -> List.assoc n announces
    | Proto_min.Forged a -> a
  in
  let payload =
    {
      Wire.exp_epoch = d.Proto_min.dr_epoch;
      exp_to = d.Proto_min.dr_beneficiary;
      exp_route = route;
      exp_provenance = Some provenance;
    }
  in
  lookup memo memo.exp_memo
    ( provenance.Wire.signer,
      Wire.encode_export { payload with Wire.exp_provenance = None } )
    (fun () ->
      Wire.draft ~as_:d.Proto_min.dr_prover ~encode:Wire.encode_export payload)

let sign ?(pool = inline) keyring drafts =
  let per_draft f =
    pool.run (Array.mapi (fun i (memo, d) () -> f i memo d) drafts)
  in
  let announces =
    per_draft (fun _ memo (d : Proto_min.draft) ->
        List.map
          (fun (n, r) ->
            ( n,
              lookup_signed memo memo.ann_memo ~as_:n
                ~encode:Wire.encode_announce
                {
                  Wire.ann_epoch = d.Proto_min.dr_epoch;
                  ann_to = d.Proto_min.dr_prover;
                  ann_route = r;
                } ))
          d.Proto_min.dr_inputs)
  in
  sign_batches pool keyring
    (Array.map (List.concat_map (fun (n, st) -> pending n st)) announces);
  let stmts =
    per_draft (fun i memo (d : Proto_min.draft) ->
        let announces =
          List.map (fun (n, st) -> (n, settle st)) announces.(i)
        in
        let commit committed =
          lookup_signed memo memo.cmt_memo ~as_:d.Proto_min.dr_prover
            ~encode:Wire.encode_commit
            {
              Wire.cmt_epoch = d.Proto_min.dr_epoch;
              cmt_prefix = d.Proto_min.dr_prefix;
              cmt_scheme = Proto_min.scheme;
              cmt_commitments =
                List.map
                  (fun ((c : C.Commitment.commitment), _) -> (c :> string))
                  committed;
            }
        in
        let c = commit d.Proto_min.dr_committed in
        let c_b =
          if d.Proto_min.dr_committed_b == d.Proto_min.dr_committed then c
          else commit d.Proto_min.dr_committed_b
        in
        let export = Option.map (export_stmt memo d announces) in
        let e = export d.Proto_min.dr_export in
        let answer =
          match d.Proto_min.dr_answer with
          | Proto_min.Stand_by x when x != d.Proto_min.dr_export -> export x
          | _ -> e
        in
        (announces, c, c_b, e, answer))
  in
  sign_batches pool keyring
    (Array.mapi
       (fun i (_, c, c_b, e, answer) ->
         let prover = (snd drafts.(i)).Proto_min.dr_prover in
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
  | Net_neighbor_disclosure of Proto_common.neighbor_disclosure
  | Net_beneficiary_disclosure of Proto_common.beneficiary_disclosure
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

let check ?(gossip = `Clique) ?ledger keyring link r =
  let d = r.draft in
  let nds = neighbor_disclosures r and bd = beneficiary_disclosure r in
  let announces = Hashtbl.of_seq (List.to_seq r.announces) in
  let prover = d.Proto_min.dr_prover
  and beneficiary = d.Proto_min.dr_beneficiary in
  let providers = link.providers in
  let participants = providers @ [ beneficiary ] in
  let tally = Obs.Tally.create () in
  let g = Gossip.create keyring in
  let raised = ref [] in
  let raise_ who e = raised := (who, e) :: !raised in
  (* Receiver state: first-wins, so duplicate deliveries are idempotent. *)
  let got_nd = Hashtbl.create 8 and got_bd = ref None in
  let direct_commit = Hashtbl.create 8 in
  let receive_commit who commit =
    Hashtbl.replace direct_commit who ();
    Option.iter
      (raise_ Adversary.Gossip)
      (Gossip.receive ?ledger g ~holder:who commit)
  in
  let receive_nd who nd =
    if not (Hashtbl.mem got_nd who) then Hashtbl.replace got_nd who nd
  in
  let gossip_round ?net () =
    let edges =
      match gossip with
      | `Clique -> Gossip.clique_edges participants
      | `Ring -> Gossip.ring_edges participants
      | `None -> []
    in
    List.iter
      (raise_ Adversary.Gossip)
      (Gossip.run_round ?net ?ledger g ~edges)
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
        ( (fun who ->
            Gossip.view g ~holder:who ~signer:prover
              ~epoch:d.Proto_min.dr_epoch ~prefix:d.Proto_min.dr_prefix
              ~scheme:Proto_min.scheme),
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
      List.iter (fun (p, nd) -> Option.iter (receive_nd p) nd) nds;
      got_bd := Some bd
  | Some n ->
      let send ~dst msg = Pvr_net.Reliable.send n.conn ~src:prover ~dst msg in
      let handler ~src ~dst = function
        | Net_commit commit -> receive_commit dst commit
        | Net_neighbor_disclosure nd when not (Bgp.Asn.equal dst prover) ->
            receive_nd dst nd
        | Net_beneficiary_disclosure bd when Bgp.Asn.equal dst beneficiary ->
            if !got_bd = None then got_bd := Some bd
        | Net_disclosure_request when Bgp.Asn.equal dst prover -> begin
            (* The prover answers re-requests according to its behaviour: a
               withheld opening stays withheld (stonewalling), anything it
               was willing to send it sends again. *)
            if Bgp.Asn.equal src beneficiary then
              send ~dst:beneficiary (Net_beneficiary_disclosure bd)
            else
              match List.assoc_opt src nds with
              | Some (Some nd) -> send ~dst:src (Net_neighbor_disclosure nd)
              | Some None | None -> ()
          end
        | _ -> ()
      in
      (* A broadcasts its (per-recipient) commitment. *)
      List.iter
        (fun who ->
          let commit = commit_for r who in
          Obs.Tally.max_ tally k_commit_bytes
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
        (fun (p, nd) ->
          Option.iter (fun nd -> send ~dst:p (Net_neighbor_disclosure nd)) nd)
        nds;
      send ~dst:beneficiary (Net_beneficiary_disclosure bd);
      quiesce n handler;
      (* Parties still owed a disclosure chase it with bounded re-requests
         before accusing. *)
      let rec chase attempt =
        if attempt <= n.faults.fp_retry_budget then begin
          let want_nd =
            List.filter
              (fun p -> view p <> None && acked p && not (Hashtbl.mem got_nd p))
              providers
          in
          let want_bd = view beneficiary <> None && !got_bd = None in
          if want_nd <> [] || want_bd then begin
            List.iter
              (fun p ->
                Pvr_net.Reliable.send n.conn ~src:p ~dst:prover
                  Net_disclosure_request)
              want_nd;
            if want_bd then
              Pvr_net.Reliable.send n.conn ~src:beneficiary ~dst:prover
                Net_disclosure_request;
            quiesce n handler;
            chase (attempt + 1)
          end
        end
      in
      chase 1;
      (* [messages] counts protocol payload transmissions, including
         retransmissions: every reliable data frame plus every gossip
         digest. *)
      Obs.Tally.add tally k_messages
        (Pvr_net.Reliable.data_sends n.conn
        + (Pvr_net.stats n.gnet).Pvr_net.sends));
  (* The ledger accounts each opening a party received as the bit it opens
     against the commitment that party was sent.  A check of that same
     commitment reports the bits it opens, so none is opened twice. *)
  let record who index value =
    Option.iter
      (fun l ->
        Leakage.Ledger.record l ~viewer:who
          (Leakage.Knows_bit { index; value }))
      ledger
  in
  let sent who commit = commit == commit_for r who in
  let on_bit who commit =
    if ledger <> None && sent who commit then Some (record who) else None
  in
  let account who openings =
    match (ledger, view who) with
    | None, _ -> ()
    | Some _, Some commit when sent who commit -> ()
    | Some _, _ ->
        List.iter
          (fun (index, o) ->
            Option.iter (record who index)
              (Proto_common.opening_bit_at (commit_for r who) ~index o))
          openings
  in
  List.iter
    (fun p ->
      let nd = Hashtbl.find_opt got_nd p in
      (match (view p, Hashtbl.find_opt announces p, nd) with
      | Some commit, Some ann, Some nd ->
          List.iter
            (raise_ (Adversary.Provider p))
            (Proto_min.check_neighbor ?on_bit:(on_bit p commit) keyring ~me:p
               ~my_announce:ann ~commit ~disclosure:(Some nd))
      | Some commit, Some ann, None when acked p ->
          raise_ (Adversary.Provider p)
            (omission
               (Evidence.Missing_disclosure_claim
                  { commit; announce = ann; claimant = p }))
      | _ -> ());
      Option.iter
        (fun nd ->
          account p [ (nd.Proto_common.nd_index, nd.Proto_common.nd_opening) ])
        nd)
    providers;
  (match (view beneficiary, !got_bd) with
  | Some commit, Some bd ->
      List.iter
        (raise_ Adversary.Beneficiary)
        (Proto_min.check_beneficiary
           ?on_bit:(on_bit beneficiary commit)
           keyring ~me:beneficiary ~commit ~disclosure:bd)
  | Some commit, None ->
      (* Total silence: B holds a commitment but never received the opening
         set.  The judge settles whether anything was owed. *)
      raise_ Adversary.Beneficiary
        (omission
           (Evidence.Missing_export_claim
              { commit; openings = []; claimant = beneficiary }))
  | None, _ -> ());
  Option.iter
    (fun bd ->
      account beneficiary bd.Proto_common.bd_openings;
      match (ledger, bd.Proto_common.bd_export) with
      | Some l, Some e ->
          let route = e.Wire.payload.Wire.exp_route in
          Leakage.Ledger.record l ~viewer:beneficiary
            (Leakage.Knows_route { provider = route.Bgp.Route.next_hop; route })
      | _ -> ())
    !got_bd;
  let base =
    finish ?ledger keyring ~respond:(respond r) (List.rev !raised) ~tally
  in
  let stat f = match link.channel with None -> 0 | Some n -> f n in
  let sends st = st.Pvr_net.sends in
  let drops st = st.Pvr_net.drops + st.Pvr_net.partition_drops in
  {
    base;
    delivered_announces = link.arrived;
    acked_announces = List.filter acked providers;
    commit_holders = List.filter (fun who -> view who <> None) participants;
    direct_commits =
      (if Option.is_none link.channel then participants
       else List.filter (Hashtbl.mem direct_commit) participants);
    disclosed_to = List.filter (Hashtbl.mem got_nd) providers;
    beneficiary_disclosed = !got_bd <> None;
    net_sends = stat (fun n -> sends (Pvr_net.stats n.net));
    net_drops = stat (fun n -> drops (Pvr_net.stats n.net));
    net_retries = stat (fun n -> Pvr_net.Reliable.retries n.conn);
    net_timeouts = stat (fun n -> Pvr_net.Reliable.failures n.conn);
    gossip_sends = stat (fun n -> sends (Pvr_net.stats n.gnet));
    gossip_drops = stat (fun n -> drops (Pvr_net.stats n.gnet));
    ticks = stat (fun n -> Pvr_net.now n.net + Pvr_net.now n.gnet);
  }

(* ---- one standalone round ------------------------------------------------ *)

let prove ?(max_path_len = Proto_min.default_max_path_len) ?(comply = false)
    ?(behaviour = Adversary.Honest) rng keyring ~prover ~beneficiary ~epoch
    ~prefix ~inputs =
  (* Admission: input-signature checks are the per-round RSA bill; batch
     them. *)
  let inputs =
    List.combine inputs
      (Proto_common.valid_inputs keyring ~prover ~epoch ~prefix inputs)
    |> List.filter_map (fun ((ann : Wire.announce Wire.signed), ok) ->
           let len = Bgp.Route.path_length ann.Wire.payload.Wire.ann_route in
           if ok && len <= max_path_len then Some ann else None)
  in
  (* The providers signed their own announces: the sign phase finds them
     here instead of signing them again. *)
  let memo = memo () in
  List.iter
    (fun (a : Wire.announce Wire.signed) ->
      Hashtbl.replace memo.ann_memo
        (a.Wire.signer, Wire.encode_announce a.Wire.payload)
        a)
    inputs;
  let d =
    Proto_min.draft ~max_path_len keyring
      ~committer:(fun ~tag:_ -> List.map (C.Commitment.commit_bit rng))
      ~prover ~beneficiary ~epoch ~prefix
      ~inputs:
        (List.map
           (fun (a : Wire.announce Wire.signed) ->
             (a.Wire.signer, a.Wire.payload.Wire.ann_route))
           inputs)
  in
  let plan =
    { Adversary.rp_behaviour = behaviour; rp_comply = comply; rp_coalition = 1 }
  in
  (sign keyring [| (memo, Adversary.perturb plan d) |]).(0)

let min_round_faulty ?gossip ?max_path_len ?(faults = perfect_faults) ?ledger
    ?comply behaviour rng keyring ~prover ~beneficiary ~epoch ~prefix ~routes =
  Obs.with_span "runner.min_round" @@ fun () ->
  let announces =
    List.map
      (fun (provider, route) ->
        (provider, announce_of_route keyring ~provider ~prover ~epoch route))
      routes
  in
  let link, arrived = connect (Net faults) (lazy rng) ~prover announces in
  check ?gossip ?ledger keyring link
    (prove ?max_path_len ?comply ~behaviour rng keyring ~prover ~beneficiary
       ~epoch ~prefix ~inputs:(List.map snd arrived))

let min_round ?gossip ?max_path_len behaviour rng keyring ~prover ~beneficiary
    ~epoch ~prefix ~routes =
  (min_round_faulty ?gossip ?max_path_len behaviour rng keyring ~prover
     ~beneficiary ~epoch ~prefix ~routes)
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

let graph_round ?max_path_len rng keyring ~prover ~beneficiary ~epoch ~prefix
    ~promise ~routes =
  Obs.with_span "runner.graph_round" @@ fun () ->
  let tally = Obs.Tally.create () in
  let announces =
    List.map
      (fun (provider, route) ->
        (provider, announce_of_route keyring ~provider ~prover ~epoch route))
      routes
  in
  let inputs = List.map snd announces in
  let providers = List.map fst announces in
  let rfg =
    Pvr_rfg.Promise.reference_rfg promise ~beneficiary ~neighbors:providers
  in
  let alpha =
    Access_control.for_promise promise ~beneficiary ~neighbors:providers
  in
  let ps =
    Proto_graph.prove ?max_path_len rng keyring ~prover ~epoch ~prefix ~rfg
      ~inputs
  in
  let commit = Proto_graph.commit_message ps in
  let export = Proto_graph.exported ps ~beneficiary in
  Obs.Tally.add tally k_messages (List.length announces + 1);
  Obs.Tally.max_ tally k_commit_bytes
    (String.length (Wire.encode_commit commit.Wire.payload));
  let raised = ref [] in
  (* Broadcast + gossip of the single root commitment, over a perfect
     channel (graph rounds are not fault-injected yet). *)
  let g = Gossip.create keyring in
  let cnet = Pvr_net.create ~rng:(C.Drbg.of_int_seed 0) () in
  List.iter
    (fun who -> Pvr_net.send cnet ~src:prover ~dst:who [ commit ])
    (providers @ [ beneficiary ]);
  let (_ : int) =
    Pvr_net.run cnet
      ~handler:(fun ~src:_ ~dst digest ->
        List.iter
          (fun c ->
            match Gossip.receive g ~holder:dst c with
            | Some e -> raised := (Adversary.Gossip, e) :: !raised
            | None -> ())
          digest)
      ()
  in
  List.iter
    (fun e -> raised := (Adversary.Gossip, e) :: !raised)
    (Gossip.run_round ~net:cnet g
       ~edges:(Gossip.clique_edges (providers @ [ beneficiary ])));
  (* Provider checks. *)
  List.iter
    (fun (provider, ann) ->
      let len = Bgp.Route.path_length ann.Wire.payload.Wire.ann_route in
      let ds =
        Proto_graph.disclose ~role:(`Provider len) ps ~alpha ~viewer:provider
      in
      Obs.Tally.incr tally k_messages;
      let evs =
        Proto_graph.check_provider keyring ~me:provider ~my_announce:ann
          ~commit ~disclosures:ds
      in
      List.iter
        (fun e -> raised := (Adversary.Provider provider, e) :: !raised)
        evs)
    announces;
  (* Beneficiary checks. *)
  let ds_b = Proto_graph.disclose ~role:`Beneficiary ps ~alpha ~viewer:beneficiary in
  Obs.Tally.incr tally k_messages;
  let evs =
    Proto_graph.check_beneficiary keyring ~me:beneficiary ~commit
      ~disclosures:ds_b ~export
  in
  List.iter (fun e -> raised := (Adversary.Beneficiary, e) :: !raised) evs;
  finish keyring
    ~respond:(fun ~accused:_ _ -> Judge.No_response)
    (List.rev !raised) ~tally
