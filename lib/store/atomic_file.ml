let c_fsync = Pvr_obs.counter "store.fsync.count"

(* Best-effort: some filesystems refuse directory syncs. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          try
            Unix.fsync fd;
            Pvr_obs.incr c_fsync
          with Unix.Unix_error _ -> ())

let write ?(fsync = true) path contents =
  let dir = Filename.dirname path in
  let tmp =
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  in
  match
    let oc = Out_channel.open_bin tmp in
    Fun.protect
      ~finally:(fun () -> Out_channel.close oc)
      (fun () ->
        Out_channel.output_string oc contents;
        Out_channel.flush oc;
        if fsync then begin
          Unix.fsync (Unix.descr_of_out_channel oc);
          Pvr_obs.incr c_fsync
        end)
  with
  | () ->
      Unix.rename tmp path;
      if fsync then fsync_dir dir
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
