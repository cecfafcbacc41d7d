module BU = Pvr_crypto.Bytes_util

let c_fsync = Pvr_obs.counter "store.fsync.count"
let c_journal_bytes = Pvr_obs.counter "store.journal.bytes"
let c_journal_appends = Pvr_obs.counter "store.journal.appends"
let c_replay_frames = Pvr_obs.counter "store.replay.frames"
let c_corrupt_dropped = Pvr_obs.counter "store.corrupt.dropped"
let c_frame_reads = Pvr_obs.counter "store.frame.reads"

let magic = "PVRJ"
let version = 1

(* Every journal frame has kind 1; what a payload is, its own leading
   tag says. *)
let kind = 1

(* magic(4) + version(1) + kind(1) + len(4) ... payload ... crc(4) *)
let header_len = 10
let max_payload = 1 lsl 28

let journal_path ~dir = Filename.concat dir "journal.pvrj"

let frame payload =
  let buf = Buffer.create (header_len + String.length payload + 4) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  Buffer.add_char buf (Char.chr kind);
  Buffer.add_string buf (BU.be32 (String.length payload));
  Buffer.add_string buf payload;
  let crc = Crc32.digest (Buffer.contents buf) in
  Buffer.add_string buf (BU.be32 crc);
  Buffer.contents buf

(* Parse the frame starting at [off]; [Ok (payload, next_off)] or the
   reason it is invalid.  Never raises. *)
let parse_frame src off =
  let total = String.length src in
  if total - off < header_len + 4 then Error "short frame"
  else if String.sub src off 4 <> magic then Error "bad magic"
  else if Char.code src.[off + 4] <> version then Error "bad version"
  else if Char.code src.[off + 5] <> kind then Error "bad kind"
  else begin
    let len = BU.read_be32 src (off + 6) in
    if len > max_payload || total - off < header_len + len + 4 then
      Error "truncated payload"
    else begin
      let crc = BU.read_be32 src (off + header_len + len) in
      if Crc32.digest (String.sub src off (header_len + len)) <> crc then
        Error "crc mismatch"
      else
        Ok (String.sub src (off + header_len) len, off + header_len + len + 4)
    end
  end

type t = {
  fsync : bool;
  path : string;
  mutable oc : Out_channel.t option;
  mutable ic : In_channel.t option;  (* page reads; opened on first use *)
  mutable pos : int;
}

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg ("Store.open_: not a directory: " ^ dir)

let open_ ?(fsync = true) ~dir () =
  ensure_dir dir;
  let oc =
    Out_channel.open_gen
      [ Open_wronly; Open_append; Open_creat; Open_binary ]
      0o644 (journal_path ~dir)
  in
  let pos =
    match Unix.stat (journal_path ~dir) with
    | { Unix.st_size; _ } -> st_size
    | exception Unix.Unix_error _ -> 0
  in
  { fsync; path = journal_path ~dir; oc = Some oc; ic = None; pos }

let channel t =
  match t.oc with
  | Some oc -> oc
  | None -> invalid_arg "Store: closed"

(* Append one frame and return the journal byte offset its header starts
   at — the stable address pages are later read back from. *)
let append' t payload =
  let oc = channel t in
  let fr = frame payload in
  let off = t.pos in
  Out_channel.output_string oc fr;
  Out_channel.flush oc;
  if t.fsync then begin
    Unix.fsync (Unix.descr_of_out_channel oc);
    Pvr_obs.incr c_fsync
  end;
  t.pos <- t.pos + String.length fr;
  Pvr_obs.incr c_journal_appends;
  Pvr_obs.add c_journal_bytes (String.length fr);
  off

let append t payload = ignore (append' t payload)

(* Random-access read of the single frame whose header starts at [off],
   through the store's one read channel.  Same validation as the
   streaming walk (magic/version/kind/len/CRC); any mangled byte comes
   back as [Error], never an exception or a torn payload — callers treat
   a failed page read as a cache miss.  Appends flush before they return
   their offset, so the reader sees every frame they wrote. *)
let read_frame_at t ~off =
  let reader () =
    match t.ic with
    | Some ic -> ic
    | None ->
        let ic = In_channel.open_bin t.path in
        t.ic <- Some ic;
        ic
  in
  if t.oc = None then Error "store closed"
  else if off < 0 then Error "negative offset"
  else
    try
      let ic = reader () in
      In_channel.seek ic (Int64.of_int off);
      let hdr = Bytes.create header_len in
      match In_channel.really_input ic hdr 0 header_len with
      | None -> Error "short frame"
      | Some () -> (
          let hdr = Bytes.to_string hdr in
          let len = BU.read_be32 hdr 6 in
          if len > max_payload then Error "truncated payload"
          else
            let rest = Bytes.create (len + 4) in
            match In_channel.really_input ic rest 0 (len + 4) with
            | None -> Error "short frame"
            | Some () -> (
                match parse_frame (hdr ^ Bytes.to_string rest) 0 with
                | Ok (payload, _) ->
                    Pvr_obs.incr c_frame_reads;
                    Ok payload
                | Error _ as e -> e))
    with Sys_error e -> Error e

let close t =
  Option.iter In_channel.close t.ic;
  t.ic <- None;
  match t.oc with
  | None -> ()
  | Some oc ->
      t.oc <- None;
      Out_channel.close oc

type recovery = {
  rc_frames : string list;
  rc_dropped : int;
  rc_truncated_bytes : int;
}

type fold_end = { fe_next : int; fe_frames : int; fe_error : string option }

(* Streaming frame walk: the journal is read in bounded chunks and only one
   frame (plus read-ahead) is ever resident, so a multi-gigabyte journal
   never materializes as a single string.  The walk stops at the first
   invalid frame — same longest-valid-prefix contract as [recover], which
   is built on top of this. *)
let fold_frames ?(from = 0) ~dir ~init ~f () =
  let clean = { fe_next = from; fe_frames = 0; fe_error = None } in
  match In_channel.open_bin (journal_path ~dir) with
  | exception Sys_error _ -> (init, clean)
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () ->
          In_channel.seek ic (Int64.of_int from);
          let chunk = 1 lsl 16 in
          let tmp = Bytes.create chunk in
          let src = ref "" in
          let start = ref 0 in
          let eof = ref false in
          let avail () = String.length !src - !start in
          let refill need =
            if avail () < need && not !eof then begin
              let b = Buffer.create (max chunk need) in
              Buffer.add_substring b !src !start (avail ());
              while (not !eof) && Buffer.length b < need do
                let n = In_channel.input ic tmp 0 chunk in
                if n = 0 then eof := true else Buffer.add_subbytes b tmp 0 n
              done;
              src := Buffer.contents b;
              start := 0
            end
          in
          let acc = ref init in
          let off = ref from in
          let frames = ref 0 in
          let stop = ref None in
          let running = ref true in
          while !running do
            refill (header_len + 4);
            if avail () = 0 then running := false
            else begin
              (* Read the declared length first so the refill below asks for
                 exactly one frame; a bogus header falls through to
                 [parse_frame], which names the reason. *)
              (if avail () >= header_len then
                 let len = BU.read_be32 !src (!start + 6) in
                 if len <= max_payload then refill (header_len + len + 4));
              match parse_frame !src !start with
              | Ok (payload, next) ->
                  acc := f !acc ~off:!off payload;
                  incr frames;
                  off := !off + (next - !start);
                  start := next
              | Error reason ->
                  stop := Some reason;
                  running := false
            end
          done;
          (!acc, { fe_next = !off; fe_frames = !frames; fe_error = !stop }))

let recover ?(quiet = false) ~dir () =
  let jpath = journal_path ~dir in
  let frames, fe =
    fold_frames ~dir ~init:[]
      ~f:(fun acc ~off:_ payload ->
        Pvr_obs.incr c_replay_frames;
        payload :: acc)
      ()
  in
  let truncated =
    match fe.fe_error with
    | None -> 0
    | Some reason ->
        let total =
          match Unix.stat jpath with
          | { Unix.st_size; _ } -> st_size
          | exception Unix.Unix_error _ -> fe.fe_next
        in
        let cut = total - fe.fe_next in
        Pvr_obs.incr c_corrupt_dropped;
        if not quiet then
          Printf.eprintf
            "store: journal %s: %s at offset %d; truncating %d byte(s)\n%!"
            jpath reason fe.fe_next cut;
        (if cut > 0 then
           (* Truncate-and-warn: cut the torn/corrupt tail so the next
              append starts at a clean frame boundary. *)
           match Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 with
           | exception Unix.Unix_error _ -> ()
           | fd ->
               Fun.protect
                 ~finally:(fun () -> Unix.close fd)
                 (fun () ->
                   try Unix.ftruncate fd fe.fe_next
                   with Unix.Unix_error _ -> ()));
        cut
  in
  {
    rc_frames = List.rev frames;
    rc_dropped = (if fe.fe_error = None then 0 else 1);
    rc_truncated_bytes = truncated;
  }

let reset ~dir =
  try Sys.remove (journal_path ~dir) with Sys_error _ -> ()
