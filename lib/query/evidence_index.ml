module Bgp = Pvr_bgp
module Store = Pvr_store.Store
module Bits = Pvr_merkle.Bitstring

let c_scan_frames = Pvr_obs.counter "query.scan.frames"

(* Binary trie over prefix bit paths (Bitstring.of_int_bits addr ~len).
   CIDR containment is bit-path prefixing, so "prefix in P" is the subtree
   under P's path and "prefix = P" is the node at exactly P's path.
   [n_count] caches the subtree row total for the planner's cost model. *)
type node = {
  mutable n_count : int;
  mutable n_here : int list; (* row ids ending at this node, reverse order *)
  mutable n_zero : node option;
  mutable n_one : node option;
}

let fresh_node () = { n_count = 0; n_here = []; n_zero = None; n_one = None }

type t = {
  mutable ix_run_id : string;
  mutable ix_rows : Row.t array;
  mutable ix_n : int;
  ix_epochs : (int, int * int) Hashtbl.t; (* epoch -> (first row id, count) *)
  mutable ix_max_epoch : int;
  ix_by_prover : (int, int list ref) Hashtbl.t; (* asn -> rev row ids *)
  ix_root : node;
}

let dummy_row =
  {
    Row.r_epoch = 0;
    r_prover = 0;
    r_addr = 0;
    r_len = 0;
    r_beneficiary = 0;
    r_providers = [];
    r_behaviour = "";
    r_detected = false;
    r_convicted = false;
    r_evidence = 0;
    r_kinds = [];
    r_leaked = 0;
    r_excess = 0;
  }

let create ~run_id () =
  {
    ix_run_id = run_id;
    ix_rows = Array.make 64 dummy_row;
    ix_n = 0;
    ix_epochs = Hashtbl.create 64;
    ix_max_epoch = 0;
    ix_by_prover = Hashtbl.create 64;
    ix_root = fresh_node ();
  }

let run_id t = t.ix_run_id
let row_count t = t.ix_n
let epoch_count t = Hashtbl.length t.ix_epochs
let max_epoch t = t.ix_max_epoch

let row t i =
  if i < 0 || i >= t.ix_n then invalid_arg "Evidence_index.row";
  t.ix_rows.(i)

let trie_insert root path id =
  let len = Bits.length path in
  let rec go node i =
    node.n_count <- node.n_count + 1;
    if i = len then node.n_here <- id :: node.n_here
    else
      let child =
        if Bits.get path i then (
          match node.n_one with
          | Some c -> c
          | None ->
              let c = fresh_node () in
              node.n_one <- Some c;
              c)
        else
          match node.n_zero with
          | Some c -> c
          | None ->
              let c = fresh_node () in
              node.n_zero <- Some c;
              c
      in
      go child (i + 1)
  in
  go root 0

let trie_find root path =
  let len = Bits.length path in
  let rec go node i =
    if i = len then Some node
    else
      match (if Bits.get path i then node.n_one else node.n_zero) with
      | None -> None
      | Some c -> go c (i + 1)
  in
  go root 0

let rec trie_collect node acc =
  let acc = List.rev_append node.n_here acc in
  let acc = match node.n_zero with Some c -> trie_collect c acc | None -> acc in
  match node.n_one with Some c -> trie_collect c acc | None -> acc

let path_of_prefix (p : Bgp.Prefix.t) =
  Bits.of_int_bits p.Bgp.Prefix.addr ~len:p.Bgp.Prefix.len

let add_row t r =
  if t.ix_n = Array.length t.ix_rows then begin
    let bigger = Array.make (2 * t.ix_n) dummy_row in
    Array.blit t.ix_rows 0 bigger 0 t.ix_n;
    t.ix_rows <- bigger
  end;
  let id = t.ix_n in
  t.ix_rows.(id) <- r;
  t.ix_n <- t.ix_n + 1;
  (let key = r.Row.r_prover in
   match Hashtbl.find_opt t.ix_by_prover key with
   | Some ids -> ids := id :: !ids
   | None -> Hashtbl.add t.ix_by_prover key (ref [ id ]));
  trie_insert t.ix_root
    (Bits.of_int_bits r.Row.r_addr ~len:r.Row.r_len)
    id

let add_epoch t ~epoch rows =
  if epoch <= t.ix_max_epoch && t.ix_n > 0 then
    invalid_arg "Evidence_index.add_epoch: epochs must be ascending";
  if Hashtbl.mem t.ix_epochs epoch then
    invalid_arg "Evidence_index.add_epoch: duplicate epoch";
  let first = t.ix_n in
  List.iter (fun r -> add_row t r) rows;
  Hashtbl.replace t.ix_epochs epoch (first, t.ix_n - first);
  t.ix_max_epoch <- max t.ix_max_epoch epoch

(* ---- access paths ---------------------------------------------------- *)

let ids_all t = List.init t.ix_n (fun i -> i)

let ids_prover t asn =
  match Hashtbl.find_opt t.ix_by_prover (Bgp.Asn.to_int asn) with
  | Some ids -> List.rev !ids
  | None -> []

let est_prover t asn =
  match Hashtbl.find_opt t.ix_by_prover (Bgp.Asn.to_int asn) with
  | Some ids -> List.length !ids
  | None -> 0

let ids_prefix t ~exact prefix =
  match trie_find t.ix_root (path_of_prefix prefix) with
  | None -> []
  | Some node ->
      let ids = if exact then node.n_here else trie_collect node [] in
      List.sort Int.compare ids

let est_prefix t ~exact prefix =
  match trie_find t.ix_root (path_of_prefix prefix) with
  | None -> 0
  | Some node -> if exact then List.length node.n_here else node.n_count

let epoch_segments t ~lo ~hi =
  Hashtbl.fold
    (fun e seg acc -> if e >= lo && e <= hi then (e, seg) :: acc else acc)
    t.ix_epochs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let ids_epoch_range t ~lo ~hi =
  List.concat_map
    (fun (_, (first, count)) -> List.init count (fun i -> first + i))
    (epoch_segments t ~lo ~hi)

let est_epoch_range t ~lo ~hi =
  List.fold_left
    (fun acc (_, (_, count)) -> acc + count)
    0
    (epoch_segments t ~lo ~hi)

(* ---- building from a store ------------------------------------------- *)

(* One pass over the journal: epoch records name the committed
   (run, epoch) pairs and the newest run, and rows frames are decoded as
   they stream past.  A rows frame is kept when it belongs to the newest
   run and a record commits its epoch; of duplicates (a crashed epoch run
   again after resume) the first in journal order wins.  Page frames and
   undecodable payloads, old tag-3 index checkpoints among them, are
   skipped. *)
let build ?quiet:_ ~dir () =
  if not (Sys.file_exists (Store.journal_path ~dir)) then
    Error (Printf.sprintf "no journal in %s" dir)
  else begin
    let committed = Hashtbl.create 64 in
    let (run, stash), fe =
      Store.fold_frames ~dir ~init:("", [])
        ~f:(fun ((run, stash) as acc) ~off:_ payload ->
          match Frame.tag payload with
          | Some t when t = Frame.tag_epoch -> (
              match Frame.decode_epoch payload with
              | Ok er ->
                  Hashtbl.replace committed
                    (er.Frame.er_run_id, er.Frame.er_epoch)
                    ();
                  (er.Frame.er_run_id, stash)
              | Error _ -> acc)
          | Some t when t = Frame.tag_rows -> (
              match Frame.decode payload with
              | Ok (Frame.Rows rf) -> (run, rf :: stash)
              | Ok _ | Error _ -> acc)
          | _ -> acc)
        ()
    in
    Pvr_obs.add c_scan_frames fe.Store.fe_frames;
    let seen = Hashtbl.create 64 in
    let epochs =
      List.fold_left
        (fun acc rf ->
          let epoch = rf.Frame.rf_epoch in
          if
            rf.Frame.rf_run_id = run
            && Hashtbl.mem committed (run, epoch)
            && not (Hashtbl.mem seen epoch)
          then begin
            Hashtbl.replace seen epoch ();
            (epoch, rf.Frame.rf_rows) :: acc
          end
          else acc)
        [] (List.rev stash)
    in
    let idx = create ~run_id:run () in
    List.iter
      (fun (epoch, rows) -> add_epoch idx ~epoch rows)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) epochs);
    Ok idx
  end
