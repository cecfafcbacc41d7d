(** Tagged journal payloads of the engine's evidence plane.

    Every payload {!Pvr_engine.Persist} appends to the {!Pvr_store.Store}
    journal starts with a u32 tag.  Tag [1] is the per-epoch summary
    record and predates this module — its tag doubled as the record
    version field, so v1 stores decode unchanged.  This module owns the
    full tag space so the query plane (which has no engine dependency)
    and the engine (which appends) cannot skew:

    - tag [1] — epoch summary (digest chain, RIB digest, tallies);
      journaled {e after} the epoch's rows frame, so it is the commit
      record: rows without a following epoch record for the same epoch
      are an uncommitted orphan.
    - tag [2] — evidence rows ({!Row.t} list) for one epoch.
    - tag [3] — no longer written.  It held an index checkpoint; an old
      store's tag-3 payloads decode as [Error], and resume and the index
      builder skip them like any foreign frame.
    - tag [4] — no longer written.  It was a spill page that also named
      its vertex, which nothing read; an old store's tag-4 payloads
      decode as [Error] and are skipped like tag [3].
    - tag [5] — a spill page: the carried outcome of one cold
      (prover,prefix) vertex the engine paged out to the journal.  Pages
      are addressed by byte offset ({!Pvr_store.Store.read_frame_at}),
      never replayed; the index builder and the resume filter skip them
      by tag. *)

type epoch_record = {
  er_epoch : int;
  er_period : int;
  er_changes : int;
  er_msgs : int;
  er_vertices : int;
  er_dirty : int;
  er_skipped : int;
  er_detected : int;
  er_convicted : int;
  er_digest : string;  (** hash chain after this epoch *)
  er_rib : string;  (** simulator RIB digest after this epoch *)
  er_run_id : string;
}

type rows_frame = { rf_run_id : string; rf_epoch : int; rf_rows : Row.t list }
type page_frame = { pf_run_id : string; pf_blob : string }

type record =
  | Epoch of epoch_record
  | Rows of rows_frame
  | Page of page_frame

val tag_epoch : int
val tag_rows : int
val tag_page : int

val tag : string -> int option
(** The leading u32 of a payload, if it has one. *)

val encode_epoch : epoch_record -> string
val decode_epoch : string -> (epoch_record, string) result
(** Tag-1 payloads only; any other payload is an [Error], which is how
    pre-query-plane readers (crashsoak's frame audit) skip them. *)

val encode_rows : rows_frame -> string
val encode_page : page_frame -> string

val decode : string -> (record, string) result
(** Decode a tag-1, tag-2 or tag-5 payload; any other tag is an [Error]. *)
