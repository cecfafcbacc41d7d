module Store = Pvr_store.Store
module Frame = Pvr_query.Frame
module Evidence_index = Pvr_query.Evidence_index

type epoch_record = Frame.epoch_record = {
  er_epoch : int;
  er_period : int;
  er_changes : int;
  er_msgs : int;
  er_vertices : int;
  er_dirty : int;
  er_skipped : int;
  er_detected : int;
  er_convicted : int;
  er_digest : string;
  er_rib : string;
  er_run_id : string;
}

let encode_epoch = Frame.encode_epoch
let decode_epoch = Frame.decode_epoch

type session = {
  store : Store.t;
  snapshot_every : int;
  dir : string;
  mutable index : Evidence_index.t option;
      (* live mirror of the journaled evidence plane; rebuilt from the
         store on the first record after a resume *)
}

let start ?(fsync = true) ?(snapshot_every = 1) ~dir () =
  { store = Store.open_ ~fsync ~dir (); snapshot_every; dir; index = None }

(* Wire the engine's spill layer to this session's WAL: pages are tag-4
   journal frames addressed by the byte offset [Store.append'] returns,
   CRC-checked on the way back and validated against the run id — a page
   from another run (or a mangled one) reads as an error, which the
   engine treats as a cache miss and recomputes through. *)
let pager s ~run_id =
  {
    Engine.pg_append =
      (fun ~key ~blob ->
        Store.append' s.store
          (Frame.encode_page
             { Frame.pf_run_id = run_id; pf_key = key; pf_blob = blob }));
    pg_read =
      (fun ~off ->
        match Store.read_frame_at ~dir:s.dir ~off with
        | Error _ as e -> e
        | Ok payload -> (
            match Frame.decode payload with
            | Ok (Frame.Page pf) when pf.Frame.pf_run_id = run_id ->
                Ok pf.Frame.pf_blob
            | Ok _ -> Error "frame at offset is not a page of this run"
            | Error e -> Error e));
  }

(* The session's live index must cover every epoch of the run, so after a
   resume (index = None, engine past epoch 1) it is rematerialized from
   the journal before this epoch's frames are appended. *)
let live_index s ~run_id ~epoch =
  match s.index with
  | Some idx -> idx
  | None ->
      let idx =
        if epoch = 1 then Evidence_index.create ~run_id ()
        else
          match Evidence_index.build ~quiet:true ~dir:s.dir () with
          | Ok idx when Evidence_index.run_id idx = run_id -> idx
          | Ok _ | Error _ -> Evidence_index.create ~run_id ()
      in
      s.index <- Some idx;
      idx

let record s eng (r : Engine.epoch_report) =
  let run_id = Engine.Checkpoint.run_id eng in
  let epoch = r.Engine.ep_epoch in
  let idx = live_index s ~run_id ~epoch in
  let rows = List.map (Engine.row_of_outcome ~epoch) r.Engine.ep_outcomes in
  (* Rows first, then the epoch record: the epoch record is the commit
     mark, so a crash between the two leaves an ignorable orphan. *)
  Store.append s.store
    (Frame.encode_rows
       { Frame.rf_run_id = run_id; rf_epoch = epoch; rf_rows = rows });
  let er =
    {
      er_epoch = epoch;
      er_period = r.Engine.ep_period;
      er_changes = r.Engine.ep_changes;
      er_msgs = r.Engine.ep_msgs;
      er_vertices = r.Engine.ep_vertices;
      er_dirty = r.Engine.ep_dirty;
      er_skipped = r.Engine.ep_skipped;
      er_detected = r.Engine.ep_detected;
      er_convicted = r.Engine.ep_convicted;
      er_digest = r.Engine.ep_digest;
      er_rib = Engine.rib_digest eng;
      er_run_id = run_id;
    }
  in
  Store.append s.store (encode_epoch er);
  if Evidence_index.max_epoch idx < epoch then
    Evidence_index.add_epoch idx ~epoch rows;
  if s.snapshot_every > 0 && epoch mod s.snapshot_every = 0 then begin
    (* Only checkpoint an index that covers every epoch of the run —
       a gap would make the builder silently lose the missing epochs. *)
    if Evidence_index.epoch_count idx = epoch then
      Store.append s.store
        (Frame.encode_index
           {
             Frame.if_run_id = run_id;
             if_epoch = epoch;
             if_blob = Evidence_index.save idx;
           });
    Store.write_snapshot s.store ~epoch (Engine.Checkpoint.save eng)
  end

let close s = Store.close s.store

type resumed = {
  rs_epoch : int;
  rs_snapshot_epoch : int;
  rs_replayed : int;
  rs_dropped : int;
}

let fresh ~dropped ~replayed =
  { rs_epoch = 0; rs_snapshot_epoch = 0; rs_replayed = replayed;
    rs_dropped = dropped }

let resume ?(quiet = false) ~dir ~engine ~apply () =
  let rc = Store.recover ~quiet ~dir () in
  let run_id = Engine.Checkpoint.run_id engine in
  (* Journal frames: keep decodable epoch records that belong to this run.
     Rows/index frames of this run are the evidence plane — not resume
     inputs, and not corruption either; foreign or undecodable frames
     count as dropped but do not invalidate the frames before them. *)
  let decode_dropped = ref 0 in
  let foreign = ref false in
  let frames =
    List.filter_map
      (fun payload ->
        match Frame.decode payload with
        | Ok (Frame.Epoch er) when er.er_run_id = run_id -> Some er
        | Ok (Frame.Rows rf) when rf.Frame.rf_run_id = run_id -> None
        | Ok (Frame.Index f) when f.Frame.if_run_id = run_id -> None
        | Ok (Frame.Page pf) when pf.Frame.pf_run_id = run_id -> None
        | Ok _ ->
            foreign := true;
            incr decode_dropped;
            None
        | Error _ ->
            incr decode_dropped;
            None)
      rc.Store.rc_frames
  in
  let last_frame =
    List.fold_left
      (fun acc er ->
        match acc with
        | Some best when best.er_epoch >= er.er_epoch -> acc
        | _ -> Some er)
      None frames
  in
  (* Newest snapshot whose header decodes and matches this run. *)
  let snapshot =
    List.find_map
      (fun (epoch, blob) ->
        match Engine.Checkpoint.info blob with
        | Ok info when info.Engine.Checkpoint.ck_run_id = run_id ->
            Some (epoch, blob, info)
        | Ok _ ->
            foreign := true;
            incr decode_dropped;
            None
        | Error _ ->
            incr decode_dropped;
            None)
      rc.Store.rc_snapshots
  in
  let dropped = rc.Store.rc_dropped + !decode_dropped in
  let replayed = List.length frames in
  let skip_to target eng =
    while Engine.current_epoch eng < target do
      let e = Engine.current_epoch eng + 1 in
      ignore (Engine.skip_epoch ~apply:(apply ~epoch:e) eng : int * int)
    done
  in
  let from_snapshot blob info =
    skip_to info.Engine.Checkpoint.ck_epoch engine;
    match Engine.Checkpoint.load engine blob with
    | Error e -> Error e
    | Ok info ->
        Ok
          {
            rs_epoch = info.Engine.Checkpoint.ck_epoch;
            rs_snapshot_epoch = info.Engine.Checkpoint.ck_epoch;
            rs_replayed = replayed;
            rs_dropped = dropped;
          }
  in
  match (snapshot, last_frame) with
  | None, None ->
      if !foreign then
        Error "store belongs to a different run (seed or parameters)"
      else Ok (fresh ~dropped ~replayed)
  | Some (_, blob, info), None -> from_snapshot blob info
  | Some (snap_epoch, blob, info), Some er when snap_epoch >= er.er_epoch ->
      from_snapshot blob info
  | snapshot, Some er -> (
      (* Journal extends past the newest snapshot (or there is none):
         restore the snapshot if any, then fast-forward to the last
         journaled epoch and adopt its chain. *)
      let restored =
        match snapshot with
        | None -> Ok 0
        | Some (_, blob, info) -> (
            skip_to info.Engine.Checkpoint.ck_epoch engine;
            match Engine.Checkpoint.load engine blob with
            | Error e -> Error e
            | Ok info -> Ok info.Engine.Checkpoint.ck_epoch)
      in
      match restored with
      | Error e -> Error e
      | Ok snap_epoch -> (
          skip_to er.er_epoch engine;
          match
            Engine.Checkpoint.advance engine ~epoch:er.er_epoch
              ~chain:er.er_digest ~rib:er.er_rib
          with
          | Error e -> Error e
          | Ok () ->
              Ok
                {
                  rs_epoch = er.er_epoch;
                  rs_snapshot_epoch = snap_epoch;
                  rs_replayed = replayed;
                  rs_dropped = dropped;
                }))
