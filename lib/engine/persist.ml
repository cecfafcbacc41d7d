module Store = Pvr_store.Store
module Frame = Pvr_query.Frame

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

type session = { store : Store.t }

let start ?(fsync = true) ?snapshot_every:_ ~dir () =
  { store = Store.open_ ~fsync ~dir () }

(* Wire the engine's spill layer to this session's WAL: pages are tag-5
   journal frames addressed by the byte offset [Store.append'] returns,
   CRC-checked on the way back and validated against the run id — a page
   from another run (or a mangled one) reads as an error, which the
   engine treats as a cache miss and recomputes through. *)
let pager s ~run_id =
  {
    Engine.pg_append =
      (fun ~blob ->
        Store.append' s.store
          (Frame.encode_page { Frame.pf_run_id = run_id; pf_blob = blob }));
    pg_read =
      (fun ~off ->
        match Store.read_frame_at s.store ~off with
        | Error _ as e -> e
        | Ok payload -> (
            match Frame.decode payload with
            | Ok (Frame.Page pf) when pf.Frame.pf_run_id = run_id ->
                Ok pf.Frame.pf_blob
            | Ok _ -> Error "frame at offset is not a page of this run"
            | Error e -> Error e));
  }

let record s eng (r : Engine.epoch_report) =
  let run_id = Engine.Checkpoint.run_id eng in
  let epoch = r.Engine.ep_epoch in
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
  Store.append s.store (encode_epoch er)

let close s = Store.close s.store

type resumed = { rs_epoch : int; rs_replayed : int; rs_dropped : int }

let resume ?(quiet = false) ~dir ~engine ~apply () =
  let rc = Store.recover ~quiet ~dir () in
  let run_id = Engine.Checkpoint.run_id engine in
  (* Journal frames: keep decodable epoch records that belong to this run.
     Rows and page frames of this run are the evidence plane and the spill
     layer — not resume inputs, and not corruption either; foreign or
     undecodable frames (an old store's tag-3 index checkpoints among
     them) count as dropped but do not invalidate the frames before them. *)
  let decode_dropped = ref 0 in
  let foreign = ref false in
  let frames =
    List.filter_map
      (fun payload ->
        match Frame.decode payload with
        | Ok (Frame.Epoch er) when er.er_run_id = run_id -> Some er
        | Ok (Frame.Rows rf) when rf.Frame.rf_run_id = run_id -> None
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
  let dropped = rc.Store.rc_dropped + !decode_dropped in
  let replayed = List.length frames in
  let newest =
    List.fold_left
      (fun acc er ->
        match acc with
        | Some best when best.er_epoch >= er.er_epoch -> acc
        | _ -> Some er)
      None frames
  in
  match newest with
  | None ->
      if !foreign then
        Error "store belongs to a different run (seed or parameters)"
      else Ok { rs_epoch = 0; rs_replayed = replayed; rs_dropped = dropped }
  | Some er -> (
      (* Replay the churn up to the record, then adopt its chain; every
         vertex recomputes in the next epoch, digest-identically. *)
      while Engine.current_epoch engine < er.er_epoch do
        let e = Engine.current_epoch engine + 1 in
        ignore (Engine.skip_epoch ~apply:(apply ~epoch:e) engine : int * int)
      done;
      match
        Engine.Checkpoint.advance engine ~epoch:er.er_epoch
          ~chain:er.er_digest ~rib:er.er_rib
      with
      | Error e -> Error e
      | Ok () ->
          Ok
            {
              rs_epoch = er.er_epoch;
              rs_replayed = replayed;
              rs_dropped = dropped;
            })
