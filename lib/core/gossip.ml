module Bgp = Pvr_bgp

(* Slot: one commitment is expected per (signer, epoch, prefix, scheme). *)
module Slot = struct
  type t = Bgp.Asn.t * Wire.epoch * string * string

  let compare = Stdlib.compare

  let of_commit (c : Wire.commit Wire.signed) =
    ( c.Wire.signer,
      c.Wire.payload.Wire.cmt_epoch,
      Bgp.Prefix.to_string c.Wire.payload.Wire.cmt_prefix,
      c.Wire.payload.Wire.cmt_scheme )
end

module Slot_map = Map.Make (Slot)

type t = {
  keyring : Keyring.t;
  mutable held : Wire.commit Wire.signed Slot_map.t Bgp.Asn.Map.t;
      (* per holder, per slot, the first commitment seen *)
}

let obs_exchanges = Pvr_obs.counter "gossip.exchanges"
let obs_equivocations = Pvr_obs.counter "gossip.equivocations"

let create keyring = { keyring; held = Bgp.Asn.Map.empty }

let holder_map t holder =
  Option.value (Bgp.Asn.Map.find_opt holder t.held) ~default:Slot_map.empty

(* Slot bookkeeping for a commit whose signature has already been checked;
   [receive] is this behind a per-commit verification, [run_round] batches
   the verification across a whole round first. *)
let receive_checked t ~holder commit =
  let slot = Slot.of_commit commit in
  let m = holder_map t holder in
  match Slot_map.find_opt slot m with
  | None ->
      t.held <- Bgp.Asn.Map.add holder (Slot_map.add slot commit m) t.held;
      None
  | Some existing ->
      if Wire.equal_commit existing commit then None
      else begin
        Pvr_obs.incr obs_equivocations;
        Some (Evidence.Equivocation { first = existing; second = commit })
      end

let receive t ~holder commit =
  if not (Wire.verify t.keyring ~encode:Wire.encode_commit commit) then None
  else receive_checked t ~holder commit

(* [view_of] decides what each party transmits: for a standalone exchange
   that is the current view; for a synchronous round it is the view frozen
   at the start of the round, so information travels one hop per round. *)
let exchange_via t ~view_of x y =
  Pvr_obs.incr obs_exchanges;
  let mx = view_of x and my = view_of y in
  let evidence = ref [] in
  let merge_into holder theirs =
    Slot_map.iter
      (fun _slot commit ->
        match receive t ~holder commit with
        | Some e -> evidence := e :: !evidence
        | None -> ())
      theirs
  in
  merge_into x my;
  merge_into y mx;
  List.rev !evidence

let exchange t x y = exchange_via t ~view_of:(holder_map t) x y

(* A round visits many edges, and the same conflicting commitment pair
   surfaces at every holder that has seen both halves; report it once.
   Non-equivocation evidence (none arises here today) passes through. *)
let evidence_key = function
  | Evidence.Equivocation { first; second } ->
      let a = Wire.encode_signed ~encode:Wire.encode_commit first
      and b = Wire.encode_signed ~encode:Wire.encode_commit second in
      Some (if a <= b then a ^ b else b ^ a)
  | _ -> None

type digest = Wire.commit Wire.signed list

let digest_of_map m = List.map snd (Slot_map.bindings m)

let run_round ?net t ~edges =
  (* Synchronous round: every edge transmits the views the holders had when
     the round started.  Gossip therefore spreads one hop per round — on a
     ring, an equivocation towards two holders more than two hops apart
     survives the first round (the E8 ablation), while a clique always has
     the direct edge.  Conflicts are still checked against each holder's
     live view, so a holder told two different things within one round does
     detect it.

     Digests travel as wire messages over a {!Pvr_net} channel; the default
     channel is a perfect (draw-free) network, under which the delivery
     order equals the send order and this reduces exactly to the former
     sequential edge walk. *)
  let net =
    match net with
    | Some n -> n
    | None -> Pvr_net.create ~rng:(Pvr_crypto.Drbg.of_int_seed 0) ()
  in
  let start = t.held in
  let view_of holder =
    Option.value (Bgp.Asn.Map.find_opt holder start) ~default:Slot_map.empty
  in
  List.iter
    (fun (x, y) ->
      Pvr_obs.incr obs_exchanges;
      (* Matches [exchange_via] ordering: x absorbs y's view first. *)
      Pvr_net.send net ~src:y ~dst:x (digest_of_map (view_of y));
      Pvr_net.send net ~src:x ~dst:y (digest_of_map (view_of x)))
    edges;
  (* Collect deliveries first, then verify every carried signature in one
     batch: the same commitment reaches every holder on the ring, so
     deduplication collapses a round's signature bill to one verification
     per distinct commitment.  Slot bookkeeping then replays in exact
     delivery order, so held-state and evidence are unchanged. *)
  let deliveries = ref [] in
  let handler ~src:_ ~dst digest = deliveries := (dst, digest) :: !deliveries in
  let (_ticks : int) = Pvr_net.run net ~handler () in
  let flat =
    List.concat_map
      (fun (dst, digest) -> List.map (fun c -> (dst, c)) digest)
      (List.rev !deliveries)
  in
  let verdicts =
    Wire.verify_batch t.keyring
      (List.map (fun (_, c) -> Wire.check ~encode:Wire.encode_commit c) flat)
  in
  let evidence = ref [] in
  List.iter2
    (fun (dst, commit) ok ->
      if ok then begin
        match receive_checked t ~holder:dst commit with
        | Some e -> evidence := e :: !evidence
        | None -> ()
      end)
    flat verdicts;
  let seen = Hashtbl.create 8 in
  List.rev !evidence
  |> List.filter (fun e ->
         match evidence_key e with
         | None -> true
         | Some key ->
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.add seen key ();
               true
             end)

let clique_edges members =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go members

let ring_edges members =
  match members with
  | [] | [ _ ] -> []
  | first :: _ ->
      let rec go = function
        | x :: (y :: _ as rest) -> (x, y) :: go rest
        | [ last ] -> [ (last, first) ]
        | [] -> []
      in
      go members

let view t ~holder ~signer ~epoch ~prefix ~scheme =
  Slot_map.find_opt
    (signer, epoch, Bgp.Prefix.to_string prefix, scheme)
    (holder_map t holder)
