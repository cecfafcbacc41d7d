type update = {
  src : Asn.t;
  dst : Asn.t;
  prefix : Prefix.t;
  route : Route.t option;
}

type node = {
  asn : Asn.t;
  rib : Rib.t;
  mutable import : Policy.t Asn.Map.t;
  mutable export : Policy.t Asn.Map.t;
  mutable decide : (Prefix.t -> Route.t list -> Route.t option) option;
  mutable origins : Prefix.Set.t;
}

type t = {
  topo : Topology.t;
  nodes : node Asn.Map.t;
  queue : update Queue.t;
  mutable gao_rexford : bool;
  dirty : (Asn.t * Prefix.t, unit) Hashtbl.t;
      (* (AS, prefix) pairs whose RIB state may have changed since the
         last [drain_dirty] — every mutation funnels through [reselect],
         which marks here. *)
}

let obs_updates = Pvr_obs.counter "sim.updates.processed"
let obs_runs = Pvr_obs.counter "sim.runs"
let obs_originates = Pvr_obs.counter "sim.originates"
let obs_withdrawals = Pvr_obs.counter "sim.withdrawals"

let create topo =
  let nodes =
    List.fold_left
      (fun acc asn ->
        Asn.Map.add asn
          {
            asn;
            rib = Rib.create ();
            import = Asn.Map.empty;
            export = Asn.Map.empty;
            decide = None;
            origins = Prefix.Set.empty;
          }
          acc)
      Asn.Map.empty (Topology.ases topo)
  in
  {
    topo;
    nodes;
    queue = Queue.create ();
    gao_rexford = true;
    dirty = Hashtbl.create 256;
  }

let node t asn =
  match Asn.Map.find_opt asn t.nodes with
  | Some n -> n
  | None -> invalid_arg ("Simulator: unknown " ^ Asn.to_string asn)

let set_import_policy t ~asn ~neighbor policy =
  let n = node t asn in
  n.import <- Asn.Map.add neighbor policy n.import

let set_export_policy t ~asn ~neighbor policy =
  let n = node t asn in
  n.export <- Asn.Map.add neighbor policy n.export

let set_decision_override t ~asn f = (node t asn).decide <- Some f

let set_gao_rexford t b = t.gao_rexford <- b

let import_policy n neighbor =
  Option.value (Asn.Map.find_opt neighbor n.import) ~default:Policy.accept_all

let export_policy n neighbor =
  Option.value (Asn.Map.find_opt neighbor n.export) ~default:Policy.accept_all

(* Decide + export to every neighbor; enqueue updates where Adj-RIB-Out
   changes. *)
let reselect t n prefix =
  Hashtbl.replace t.dirty (n.asn, prefix) ();
  let candidates = Rib.candidates n.rib prefix in
  let candidates =
    if Prefix.Set.mem prefix n.origins then
      Route.originate ~asn:n.asn prefix :: candidates
    else candidates
  in
  let best =
    match n.decide with
    | Some f -> f prefix candidates
    | None -> Decision.best candidates
  in
  Rib.set_best n.rib prefix best;
  List.iter
    (fun (neighbor, rel_of_neighbor) ->
      let proposed =
        match best with
        | None -> None
        | Some r ->
            (* Never announce back to the AS the route came through. *)
            if Route.through neighbor r then None
            else begin
              let allowed =
                (not t.gao_rexford)
                || Prefix.Set.mem prefix n.origins
                ||
                match Topology.relationship t.topo n.asn r.Route.next_hop with
                | Some learned_from ->
                    Relationship.export_allowed ~learned_from
                      ~to_:rel_of_neighbor
                | None -> true
              in
              if not allowed then None
              else
                match Policy.evaluate (export_policy n neighbor) r with
                | None -> None
                | Some r ->
                    (* A self-originated route already carries [n.asn] as its
                       whole path; only learned routes get prepended. *)
                    let announced =
                      if Asn.equal r.Route.next_hop n.asn then r
                      else Route.prepend n.asn r
                    in
                    Some (Route.strip_private_attrs announced)
            end
      in
      let current = Rib.get_out n.rib ~neighbor prefix in
      let changed =
        match (current, proposed) with
        | None, None -> false
        | Some a, Some b -> not (Route.equal a b)
        | _ -> true
      in
      if changed then begin
        Rib.set_out n.rib ~neighbor prefix proposed;
        Queue.add
          { src = n.asn; dst = neighbor; prefix; route = proposed }
          t.queue
      end)
    (Topology.neighbors t.topo n.asn)

let originate t ~asn prefix =
  Pvr_obs.incr obs_originates;
  let n = node t asn in
  n.origins <- Prefix.Set.add prefix n.origins;
  reselect t n prefix

let withdraw_origin t ~asn prefix =
  Pvr_obs.incr obs_withdrawals;
  let n = node t asn in
  n.origins <- Prefix.Set.remove prefix n.origins;
  reselect t n prefix

let deliver t (u : update) =
  let n = node t u.dst in
  let imported =
    match u.route with
    | None -> None
    | Some r ->
        if Route.has_loop n.asn r then None
        else Policy.evaluate (import_policy n u.src) r
  in
  Rib.set_in n.rib ~neighbor:u.src u.prefix imported;
  reselect t n u.prefix

let run ?(max_messages = 1_000_000) t =
  Pvr_obs.incr obs_runs;
  Pvr_obs.with_span "sim.run" (fun () ->
      let processed = ref 0 in
      while not (Queue.is_empty t.queue) do
        if !processed >= max_messages then
          failwith "Simulator.run: no convergence (policy dispute?)";
        let u = Queue.pop t.queue in
        incr processed;
        deliver t u
      done;
      Pvr_obs.add obs_updates !processed;
      !processed)

let rib t asn = (node t asn).rib

let best_route t ~asn prefix = Rib.get_best (node t asn).rib prefix

let received_routes t ~asn prefix = Rib.candidates (node t asn).rib prefix

let exported_route t ~asn ~neighbor prefix =
  Rib.get_out (node t asn).rib ~neighbor prefix

let set_log_enabled _ _ = ()

let drain_dirty t =
  let pairs = Hashtbl.fold (fun k () acc -> k :: acc) t.dirty [] in
  Hashtbl.reset t.dirty;
  List.sort
    (fun (a1, p1) (a2, p2) ->
      match Asn.compare a1 a2 with 0 -> Prefix.compare p1 p2 | c -> c)
    pairs
