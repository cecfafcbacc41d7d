module Bgp = Pvr_bgp
module Codec = Pvr_crypto.Codec
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

(* ---- serialization --------------------------------------------------- *)

let save_version = 1

let save t =
  let buf = Buffer.create 4096 in
  Codec.u32 buf save_version;
  Codec.str buf t.ix_run_id;
  let epochs =
    Hashtbl.fold (fun e seg acc -> (e, seg) :: acc) t.ix_epochs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Codec.u32 buf (List.length epochs);
  List.iter
    (fun (epoch, (first, count)) ->
      Codec.u32 buf epoch;
      Codec.u32 buf count;
      for i = first to first + count - 1 do
        Row.encode buf t.ix_rows.(i)
      done)
    epochs;
  Buffer.contents buf

let load blob =
  Codec.decode blob (fun r ->
      let v = Codec.get_u32 r in
      if v <> save_version then
        raise
          (Codec.Malformed ("unsupported index version " ^ string_of_int v));
      let run_id = Codec.get_str r in
      let t = create ~run_id () in
      let n = Codec.get_u32 r in
      (* [save] writes epochs strictly ascending, which [add_epoch] needs. *)
      let prev = ref (-1) in
      for _ = 1 to n do
        let epoch = Codec.get_u32 r in
        if epoch <= !prev then Codec.malformed "index epochs out of order";
        prev := epoch;
        let count = Codec.get_u32 r in
        let rows = List.init count (fun _ -> Row.read r) in
        add_epoch t ~epoch rows
      done;
      t)

(* ---- building from a store ------------------------------------------- *)

(* Discovery pass over the whole journal (cheap: epoch records are tiny and
   rows/index frames only have their headers peeked), then a row-decoding
   pass that starts at the newest usable index checkpoint — the
   incremental-materialization fast path: rows already covered by the
   checkpoint are never decoded again. *)
let build ?(quiet = false) ~dir () =
  let warn fmt =
    Printf.ksprintf
      (fun msg -> if not quiet then Printf.eprintf "query: %s\n%!" msg)
      fmt
  in
  if not (Sys.file_exists (Store.journal_path ~dir)) then
    Error (Printf.sprintf "no journal in %s" dir)
  else begin
    (* Pass 1: committed epochs, authoritative run id, newest index frame. *)
    let committed = Hashtbl.create 64 in
    let last_run = ref "" in
    let max_committed = ref 0 in
    let index_frames = ref [] in
    let (), _fe =
      Store.fold_frames ~dir ~init:()
        ~f:(fun () ~off payload ->
          match Frame.tag payload with
          | Some t when t = Frame.tag_epoch -> (
              match Frame.decode_epoch payload with
              | Ok er ->
                  last_run := er.Frame.er_run_id;
                  Hashtbl.replace committed
                    (er.Frame.er_run_id, er.Frame.er_epoch)
                    ();
                  ()
              | Error _ -> ())
          | Some t when t = Frame.tag_index -> (
              match Frame.peek_header payload with
              | Some (_, run, epoch) ->
                  index_frames := (off, run, epoch) :: !index_frames
              | None -> ())
          | _ -> ())
        ()
    in
    let run = !last_run in
    Hashtbl.iter
      (fun (r, e) () -> if r = run then max_committed := max !max_committed e)
      committed;
    let is_committed e = Hashtbl.mem committed (run, e) in
    (* Newest index checkpoint that belongs to this run and only covers
       committed epochs. *)
    let checkpoint =
      List.find_opt
        (fun (_, r, e) -> r = run && e <= !max_committed)
        !index_frames
    in
    (* Pass 2 from [from]: decode rows frames not covered by [base]. *)
    let scan_rows ~from ~covered base =
      let seen = Hashtbl.create 64 in
      let stash, fe =
        Store.fold_frames ~from ~dir ~init:[]
          ~f:(fun acc ~off:_ payload ->
            match Frame.tag payload with
            | Some t when t = Frame.tag_rows -> (
                match Frame.decode payload with
                | Ok (Frame.Rows rf)
                  when rf.Frame.rf_run_id = run
                       && rf.Frame.rf_epoch > covered
                       && is_committed rf.Frame.rf_epoch
                       && not (Hashtbl.mem seen rf.Frame.rf_epoch) ->
                    Hashtbl.replace seen rf.Frame.rf_epoch ();
                    (rf.Frame.rf_epoch, rf.Frame.rf_rows) :: acc
                | Ok _ | Error _ -> acc)
            | _ -> acc)
          ()
      in
      Pvr_obs.add c_scan_frames fe.Store.fe_frames;
      List.iter
        (fun (epoch, rows) -> add_epoch base ~epoch rows)
        (List.sort (fun (a, _) (b, _) -> Int.compare a b) stash);
      base
    in
    let from_scratch () =
      scan_rows ~from:0 ~covered:0 (create ~run_id:run ())
    in
    let idx =
      match checkpoint with
      | None -> from_scratch ()
      | Some (off, _, _) -> (
          (* Re-read the checkpoint frame itself, then scan only past it. *)
          let blob = ref None in
          let (), _ =
            Store.fold_frames ~from:off ~dir ~init:()
              ~f:(fun () ~off:o payload ->
                if o = off then
                  match Frame.decode payload with
                  | Ok (Frame.Index f) -> blob := Some f.Frame.if_blob
                  | Ok _ | Error _ -> ())
              ()
          in
          match Option.map load !blob with
          | Some (Ok base) when run_id base = run ->
              scan_rows ~from:off ~covered:(max_epoch base) base
          | Some (Ok _) | Some (Error _) | None ->
              warn "index checkpoint unusable; rebuilding from rows frames";
              from_scratch ())
    in
    Ok idx
  end
