(** Durable epoch store: an append-only, CRC-framed write-ahead journal
    in one directory.

    {2 On-disk format}

    The journal ([journal.pvrj]) is a sequence of frames:

    {v
    "PVRJ" | version u8 | kind u8 | len u32be | payload | crc32 u32be
    v}

    where the CRC covers everything from the magic through the payload.
    Frames are appended with a single [write] followed by an optional
    [fsync], so a crash can only tear the {e last} frame.  Every frame
    has kind 1; what a payload holds, its own leading tag says (the query
    plane's [Frame] module owns the tags).

    {2 Recovery contract}

    {!recover} never raises on corrupt input.  It walks the journal from
    the start, keeps the longest valid prefix of frames, truncates the
    file back to that prefix (torn or mangled tails are dropped with a
    warning on [stderr]) and returns the payloads of that prefix.  Other
    files in the directory are never read.  A dropped tail bumps the
    ["store.corrupt.dropped"] counter; every replayed frame bumps
    ["store.replay.frames"]; appends
    account bytes in ["store.journal.bytes"] and fsyncs in
    ["store.fsync.count"]. *)

type t
(** An open store, positioned for appending. *)

val open_ : ?fsync:bool -> dir:string -> unit -> t
(** Create [dir] if needed and open the journal for appending.  [fsync]
    (default [true]) syncs the journal after every append; [false] keeps
    the framing (and hence torn-write recovery) but skips the durability
    barrier. *)

val append : t -> string -> unit
(** Append one journal frame with the given payload and flush it
    (+fsync when enabled). *)

val append' : t -> string -> int
(** Like {!append}, but return the journal byte offset the frame's header
    starts at.  The offset is stable for the life of the journal (recovery
    only ever truncates the tail), so it can be stored and later passed to
    {!read_frame_at} — this is the paging primitive the engine's spill
    layer builds on. *)

val read_frame_at : t -> off:int -> (string, string) result
(** Read back the single frame whose header starts at byte [off] of the
    journal, re-validating magic, version, kind, length and CRC.  Returns
    the payload, or [Error reason] for any torn, mangled, or out-of-range
    frame, and for a closed store.  Never raises.  Reads go through one
    read channel per store, opened on the first read and closed by
    {!close}; it sees every frame {!append'} has returned.  Each
    successful read bumps ["store.frame.reads"]. *)

val close : t -> unit
(** Close the journal and the read channel. *)

type recovery = {
  rc_frames : string list;  (** valid journal frame payloads, append order *)
  rc_dropped : int;  (** 1 when a corrupt or torn tail was dropped, else 0 *)
  rc_truncated_bytes : int;  (** journal bytes cut off the tail *)
}

type fold_end = {
  fe_next : int;  (** offset just past the last valid frame *)
  fe_frames : int;  (** frames delivered to [f] *)
  fe_error : string option;
      (** why the walk stopped before EOF ([None] = clean end) *)
}

val fold_frames :
  ?from:int ->
  dir:string ->
  init:'a ->
  f:('a -> off:int -> string -> 'a) ->
  unit ->
  'a * fold_end
(** Stream the journal's valid frame prefix without ever materializing the
    file as one string: frames are parsed out of bounded read-ahead chunks
    and handed to [f] with the byte offset their header starts at.  The
    walk begins at [from] (default 0, which must be a frame boundary) and
    stops at EOF or at the first invalid frame, whose offset and reason
    come back in [fold_end].  Never raises and never mutates the journal —
    both {!recover} (which adds truncation) and the query-plane index
    builder are built on it.  A missing journal is an empty, clean walk. *)

val recover : ?quiet:bool -> dir:string -> unit -> recovery
(** Read back everything valid in [dir]; truncate the journal to its
    valid prefix.  Never raises: unreadable files and mangled bytes
    degrade to an empty/shorter recovery.  [quiet] suppresses the
    [stderr] warnings. *)

val reset : dir:string -> unit
(** Delete the journal in [dir] (fresh start). *)

val remove : dir:string -> unit
(** Delete every file in [dir], then [dir] itself.  Errors are ignored:
    a directory that is already gone, or cannot be emptied, is left as
    it is. *)

val journal_path : dir:string -> string
