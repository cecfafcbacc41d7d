(* A node is one AS.  Its neighbors sit in slots sorted by ASN (the slots
   of its {!Rib.t}); the per-slot arrays hold what the neighbor is to this
   AS, the neighbor's node index and this AS's slot in the neighbor's
   arrays (the back slot). *)
type node = {
  asn : Asn.t;
  rib : Rib.t;
  nbrs : Asn.t array;
  rels : Relationship.t array;
  peer : int array;
  back : int array;
  mutable origins : Prefix.Set.t;
  mutable entries : Rib.entry option array; (* by prefix id *)
}

(* The FIFO of messages in flight: message [i] tells node [q_dst.(i)]
   that its neighbor in slot [q_slot.(i)] now sends [q_route.(i)] for
   prefix id [q_pid.(i)] ([None] = withdrawal).  A ring over parallel
   arrays, doubled when full, so queueing a message allocates nothing. *)
type fifo = {
  mutable q_dst : int array;
  mutable q_slot : int array;
  mutable q_pid : int array;
  mutable q_route : Route.t option array;
  mutable head : int;
  mutable len : int;
}

type t = {
  nodes : node array; (* ascending ASN *)
  asns : Asn.t array; (* [asns.(i)] is [nodes.(i).asn] *)
  pids : (Prefix.t, int) Hashtbl.t; (* prefix -> dense id *)
  mutable by_pid : Prefix.t array; (* dense id -> prefix *)
  queue : fifo;
}

let obs_updates = Pvr_obs.counter "sim.updates.processed"
let obs_runs = Pvr_obs.counter "sim.runs"
let obs_originates = Pvr_obs.counter "sim.originates"
let obs_withdrawals = Pvr_obs.counter "sim.withdrawals"

let create topo =
  let ases = Array.of_list (Topology.ases topo) in
  (* [Topology.neighbors] lists neighbors in ascending ASN, the slot order
     [Rib.create] sorts them into. *)
  let nodes =
    Array.map
      (fun asn ->
        let l = Array.of_list (Topology.neighbors topo asn) in
        let deg = Array.length l in
        let rib = Rib.create (Array.map fst l) in
        {
          asn;
          rib;
          nbrs = Rib.neighbors rib;
          rels = Array.map snd l;
          peer = Array.make deg 0;
          back = Array.make deg 0;
          origins = Prefix.Set.empty;
          entries = [||];
        })
      ases
  in
  Array.iter
    (fun n ->
      Array.iteri
        (fun s nbr ->
          let j = Asn.find_sorted ases nbr in
          n.peer.(s) <- j;
          n.back.(s) <- Rib.slot nodes.(j).rib n.asn)
        n.nbrs)
    nodes;
  {
    nodes;
    asns = ases;
    pids = Hashtbl.create 64;
    by_pid = [||];
    queue =
      {
        q_dst = Array.make 256 0;
        q_slot = Array.make 256 0;
        q_pid = Array.make 256 0;
        q_route = Array.make 256 None;
        head = 0;
        len = 0;
      };
  }

let node t asn =
  let i = Asn.find_sorted t.asns asn in
  if i < 0 then invalid_arg ("Simulator: unknown " ^ Asn.to_string asn);
  t.nodes.(i)

let pid t prefix =
  match Hashtbl.find_opt t.pids prefix with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.pids in
      Hashtbl.add t.pids prefix i;
      if i = Array.length t.by_pid then begin
        let grown = Array.make (max 16 (2 * i)) prefix in
        Array.blit t.by_pid 0 grown 0 i;
        t.by_pid <- grown
      end;
      t.by_pid.(i) <- prefix;
      i

(* The node's entry for a prefix id, created when the node first meets
   the id. *)
let entry t n pid =
  if pid >= Array.length n.entries then begin
    let grown = Array.make (max (pid + 1) (2 * Array.length n.entries)) None in
    Array.blit n.entries 0 grown 0 (Array.length n.entries);
    n.entries <- grown
  end;
  match n.entries.(pid) with
  | Some e -> e
  | None ->
      let e = Rib.entry n.rib t.by_pid.(pid) in
      n.entries.(pid) <- Some e;
      e

let push t ~dst ~slot ~pid route =
  let q = t.queue in
  let cap = Array.length q.q_dst in
  if q.len = cap then begin
    (* Unroll the ring into arrays twice the size. *)
    let grow a fill =
      let b = Array.make (2 * cap) fill in
      let first = cap - q.head in
      Array.blit a q.head b 0 first;
      Array.blit a 0 b first q.head;
      b
    in
    q.q_dst <- grow q.q_dst 0;
    q.q_slot <- grow q.q_slot 0;
    q.q_pid <- grow q.q_pid 0;
    q.q_route <- grow q.q_route None;
    q.head <- 0
  end;
  let i = (q.head + q.len) land (Array.length q.q_dst - 1) in
  q.q_dst.(i) <- dst;
  q.q_slot.(i) <- slot;
  q.q_pid.(i) <- pid;
  q.q_route.(i) <- route;
  q.len <- q.len + 1

(* How [n] announces a route it selected: a self-originated route already
   carries [n.asn] as its whole path, a learned one gets [n.asn]
   prepended; local-pref never crosses the boundary. *)
let announce n r =
  let r =
    if Asn.equal r.Route.next_hop n.asn then r else Route.prepend n.asn r
  in
  Route.strip_private_attrs r

(* Decide, then export to every neighbor in slot order, queueing a message
   wherever the Adj-RIB-Out changes.  Every write to an entry funnels
   through here, so this one mark keeps the entry's digest honest. *)
let reselect t n pid (e : Rib.entry) =
  Rib.mark n.rib e;
  let prefix = e.prefix in
  let originated = Prefix.Set.mem prefix n.origins in
  let deg = Array.length n.nbrs in
  (* One pass of the standard pipeline over the origin route and then the
     slots in descending ASN: the order [Decision.best] would see the
     candidates in. *)
  let rec pick s best =
    if s < 0 then best
    else
      match (e.adj_in.(s), best) with
      | (Some _ as c), None -> pick (s - 1) c
      | (Some r as c), Some b when Decision.compare_standard r b < 0 ->
          pick (s - 1) c
      | _ -> pick (s - 1) best
  in
  let best =
    pick (deg - 1)
      (if originated then Some (Route.originate ~asn:n.asn prefix) else None)
  in
  e.best <- best;
  match best with
  | None ->
      for s = 0 to deg - 1 do
        if Option.is_some e.adj_out.(s) then begin
          e.adj_out.(s) <- None;
          push t ~dst:n.peer.(s) ~slot:n.back.(s) ~pid None
        end
      done
  | Some r ->
      (* Gao–Rexford: the slot the route was learned through, or [-1]
         when every export is allowed. *)
      let learned =
        if originated then -1 else Rib.slot n.rib r.Route.next_hop
      in
      let shared = Some (announce n r) in
      for s = 0 to deg - 1 do
        let proposed =
          (* Never announce back to an AS the route came through. *)
          if Route.through n.nbrs.(s) r then None
          else if
            learned >= 0
            && not
                 (Relationship.export_allowed ~learned_from:n.rels.(learned)
                    ~to_:n.rels.(s))
          then None
          else shared
        in
        let changed =
          match (e.adj_out.(s), proposed) with
          | None, None -> false
          | Some a, Some b -> not (Route.equal a b)
          | _ -> true
        in
        if changed then begin
          e.adj_out.(s) <- proposed;
          push t ~dst:n.peer.(s) ~slot:n.back.(s) ~pid proposed
        end
      done

let originate t ~asn prefix =
  Pvr_obs.incr obs_originates;
  let n = node t asn in
  n.origins <- Prefix.Set.add prefix n.origins;
  let pid = pid t prefix in
  reselect t n pid (entry t n pid)

let withdraw_origin t ~asn prefix =
  Pvr_obs.incr obs_withdrawals;
  let n = node t asn in
  n.origins <- Prefix.Set.remove prefix n.origins;
  let pid = pid t prefix in
  reselect t n pid (entry t n pid)

let deliver t ~dst ~slot ~pid route =
  let n = t.nodes.(dst) in
  let e = entry t n pid in
  (* A route whose path already holds this AS is dropped on import. *)
  e.adj_in.(slot) <-
    (match route with Some r when Route.has_loop n.asn r -> None | _ -> route);
  reselect t n pid e

let run ?(max_messages = 1_000_000) t =
  Pvr_obs.incr obs_runs;
  Pvr_obs.with_span "sim.run" (fun () ->
      let q = t.queue in
      let processed = ref 0 in
      while q.len > 0 do
        if !processed >= max_messages then
          failwith "Simulator.run: message budget exceeded";
        let i = q.head in
        let route = q.q_route.(i) in
        q.q_route.(i) <- None;
        q.head <- (i + 1) land (Array.length q.q_dst - 1);
        q.len <- q.len - 1;
        incr processed;
        deliver t ~dst:q.q_dst.(i) ~slot:q.q_slot.(i) ~pid:q.q_pid.(i) route
      done;
      Pvr_obs.add obs_updates !processed;
      !processed)

let rib t asn = (node t asn).rib

let best_route t ~asn prefix = Rib.get_best (node t asn).rib prefix

let received_routes t ~asn prefix = Rib.candidates (node t asn).rib prefix

let exported_route t ~asn ~neighbor prefix =
  Rib.get_out (node t asn).rib ~neighbor prefix

let set_log_enabled _ _ = ()
