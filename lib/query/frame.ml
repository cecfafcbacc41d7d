module Codec = Pvr_crypto.Codec

(* Tag space of engine journal payloads.  Tag 1 predates this module: it
   doubled as the epoch-record version field, so v1 epoch payloads from
   older stores decode unchanged.  Tag 2 is the evidence plane.  Tag 3 was
   an index checkpoint; it is no longer written, and an old store's tag-3
   frames decode as [Error], skipped like any foreign frame. *)
let tag_epoch = 1
let tag_rows = 2

(* Tag 4 is the engine's spill layer: one cold (prover,prefix) vertex
   state paged out to the journal.  Pages are read back by byte offset
   ([Store.read_frame_at]), never replayed — the index builder and resume
   filter skip them by tag. *)
let tag_page = 4

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
  er_digest : string;
  er_rib : string;
  er_run_id : string;
}

type rows_frame = { rf_run_id : string; rf_epoch : int; rf_rows : Row.t list }
type page_frame = { pf_run_id : string; pf_key : string; pf_blob : string }

type record =
  | Epoch of epoch_record
  | Rows of rows_frame
  | Page of page_frame

let tag payload =
  if String.length payload < 4 then None
  else Some (Pvr_crypto.Bytes_util.read_be32 payload 0)

let encode_epoch r =
  let buf = Buffer.create 256 in
  Codec.u32 buf tag_epoch;
  Codec.u32 buf r.er_epoch;
  Codec.u32 buf r.er_period;
  Codec.u32 buf r.er_changes;
  Codec.u32 buf r.er_msgs;
  Codec.u32 buf r.er_vertices;
  Codec.u32 buf r.er_dirty;
  Codec.u32 buf r.er_skipped;
  Codec.u32 buf r.er_detected;
  Codec.u32 buf r.er_convicted;
  Codec.str buf r.er_digest;
  Codec.str buf r.er_rib;
  Codec.str buf r.er_run_id;
  Buffer.contents buf

let read_epoch r =
  let er_epoch = Codec.get_u32 r in
  let er_period = Codec.get_u32 r in
  let er_changes = Codec.get_u32 r in
  let er_msgs = Codec.get_u32 r in
  let er_vertices = Codec.get_u32 r in
  let er_dirty = Codec.get_u32 r in
  let er_skipped = Codec.get_u32 r in
  let er_detected = Codec.get_u32 r in
  let er_convicted = Codec.get_u32 r in
  let er_digest = Codec.get_str r in
  let er_rib = Codec.get_str r in
  let er_run_id = Codec.get_str r in
  {
    er_epoch;
    er_period;
    er_changes;
    er_msgs;
    er_vertices;
    er_dirty;
    er_skipped;
    er_detected;
    er_convicted;
    er_digest;
    er_rib;
    er_run_id;
  }

let decode_epoch payload =
  Codec.decode payload (fun r ->
      let v = Codec.get_u32 r in
      if v <> tag_epoch then
        raise
          (Codec.Malformed ("unsupported journal version " ^ string_of_int v));
      read_epoch r)

let encode_rows f =
  let buf = Buffer.create 1024 in
  Codec.u32 buf tag_rows;
  Codec.str buf f.rf_run_id;
  Codec.u32 buf f.rf_epoch;
  Codec.u32 buf (List.length f.rf_rows);
  List.iter (fun r -> Row.encode buf r) f.rf_rows;
  Buffer.contents buf

let read_rows r =
  let rf_run_id = Codec.get_str r in
  let rf_epoch = Codec.get_u32 r in
  let n = Codec.get_u32 r in
  let rf_rows = List.init n (fun _ -> Row.read r) in
  { rf_run_id; rf_epoch; rf_rows }

let encode_page f =
  let buf = Buffer.create (String.length f.pf_blob + 64) in
  Codec.u32 buf tag_page;
  Codec.str buf f.pf_run_id;
  Codec.str buf f.pf_key;
  Codec.str buf f.pf_blob;
  Buffer.contents buf

let read_page r =
  let pf_run_id = Codec.get_str r in
  let pf_key = Codec.get_str r in
  let pf_blob = Codec.get_str r in
  { pf_run_id; pf_key; pf_blob }

let decode payload =
  Codec.decode payload (fun r ->
      let t = Codec.get_u32 r in
      if t = tag_epoch then Epoch (read_epoch r)
      else if t = tag_rows then Rows (read_rows r)
      else if t = tag_page then Page (read_page r)
      else raise (Codec.Malformed ("unknown journal tag " ^ string_of_int t)))
