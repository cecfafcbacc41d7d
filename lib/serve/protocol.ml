(* Wire protocol for the `pvr serve` daemon.

   Transport: a byte stream (Unix domain socket or TCP).  Every message is
   one length-framed record — a 4-byte big-endian payload length followed
   by the payload — in the same style as the store's WAL framing.  The
   payload is a {!Pvr_crypto.Codec} record whose first u32 is the message
   tag; decoding is bounds-checked, and a malformed or oversized frame
   tears down only the offending connection, never the daemon.

   The protocol is strictly request/response except for [Run_epochs],
   which streams one [Verdict] frame per completed epoch and terminates
   with [Done] (or [Err]/[Busy]).  Clients drive the next request only
   after the terminal frame, so a connection carries at most one
   in-flight request. *)

module Codec = Pvr_crypto.Codec

(* Frames above this are a protocol violation (the largest legitimate
   frame is a query result page, far below 1 MiB). *)
let max_frame = 16 * 1024 * 1024

(* Requests are much smaller: the largest, [Open_session] and [Query],
   take a few hundred bytes.  The daemon reads requests under this bound,
   so a client announcing a huge frame is hung up on before its payload
   is allocated. *)
let max_request = 64 * 1024

exception Closed

(* ---- framing -------------------------------------------------------------- *)

let really_write fd buf off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    match Unix.write fd buf !off !len with
    | 0 -> raise Closed
    | n ->
        off := !off + n;
        len := !len - n
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        raise Closed
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let really_read fd buf off len =
  let off = ref off and len = ref len in
  while !len > 0 do
    match Unix.read fd buf !off !len with
    | 0 -> raise Closed
    | n ->
        off := !off + n;
        len := !len - n
    | exception Unix.Unix_error (ECONNRESET, _, _) -> raise Closed
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  (* One write for header+payload keeps frames atomic at our end. *)
  let msg = Bytes.create (4 + n) in
  Bytes.blit hdr 0 msg 0 4;
  Bytes.blit_string payload 0 msg 4 n;
  really_write fd msg 0 (4 + n)

let read_bounded ~max fd =
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if n < 0 || n > max then raise Closed;
  let payload = Bytes.create n in
  really_read fd payload 0 n;
  Bytes.unsafe_to_string payload

let read_frame fd = read_bounded ~max:max_frame fd

(* ---- messages ------------------------------------------------------------- *)

type verdict = {
  v_epoch : int;
  v_changes : int;
  v_dirty : int;
  v_detected : int;
  v_convicted : int;
  v_digest : string; (* running hash-chain digest after this epoch *)
}

type stats_reply = {
  st_sessions : int; (* open sessions *)
  st_inflight : int; (* admitted work items not yet finished *)
  st_queue_depth : int; (* admitted items beyond one per worker *)
  st_queue_cap : int;
  st_workers : int;
  st_draining : bool;
  st_world_hits : int; (* sessions whose world came from the world cache *)
  st_world_misses : int; (* sessions that built their world *)
  st_world_keys : int; (* RSA keys the world cache holds *)
  st_sha256_accelerated : bool; (* SHA-256 runs on the SHA extensions *)
}

type request =
  | Ping
  | Open_session of Workload.params
  | Run_epochs of int (* session id *)
  | Query of { q_text : string; q_viewer : int; q_json : bool }
  | Stats
  | Stall of int (* occupy one worker for N ms: deterministic-backpressure test aid *)
  | Close_session of int

type response =
  | Ok_r
  | Busy
  | Err of string
  | Session of int
  | Verdict of verdict
  | Done of { d_digest : string; d_convicted : int }
  | Stats_r of stats_reply
  | Rows of string list

(* ---- params codec ---------------------------------------------------------- *)

let encode_params b (p : Workload.params) =
  Codec.u32 b p.p_seed;
  Codec.str b p.p_tiers;
  Codec.str b (Printf.sprintf "%.17g" p.p_peering);
  Codec.u32 b p.p_ases;
  Codec.bool_ b (p.p_gen_seed <> None);
  Codec.u32 b (match p.p_gen_seed with Some s -> s | None -> 0);
  Codec.u32 b p.p_epochs;
  Codec.u32 b p.p_jobs;
  Codec.bool_ b p.p_intern;
  Codec.u32 b p.p_bits;
  Codec.bool_ b p.p_cache;
  Codec.u32 b p.p_salt_every;
  Codec.str b (Printf.sprintf "%.17g" p.p_turnover);
  Codec.u32 b p.p_origins;
  Codec.u32 b p.p_ppo;
  Codec.u32 b p.p_anycast;
  Codec.str b (Printf.sprintf "%.17g" p.p_drop);
  Codec.str b (Pvr.Adversary.strategy_to_string p.p_strategy);
  Codec.u32 b p.p_mem_ceiling

let float_of_field s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Codec.Malformed "float field")

let decode_params r : Workload.params =
  let p_seed = Codec.get_u32 r in
  let p_tiers = Codec.get_str r in
  let p_peering = float_of_field (Codec.get_str r) in
  let p_ases = Codec.get_u32 r in
  let has_gen_seed = Codec.get_bool r in
  let gen_seed = Codec.get_u32 r in
  let p_gen_seed = if has_gen_seed then Some gen_seed else None in
  let p_epochs = Codec.get_u32 r in
  let p_jobs = Codec.get_u32 r in
  let p_intern = Codec.get_bool r in
  let p_bits = Codec.get_u32 r in
  let p_cache = Codec.get_bool r in
  let p_salt_every = Codec.get_u32 r in
  let p_turnover = float_of_field (Codec.get_str r) in
  let p_origins = Codec.get_u32 r in
  let p_ppo = Codec.get_u32 r in
  let p_anycast = Codec.get_u32 r in
  let p_drop = float_of_field (Codec.get_str r) in
  let p_strategy =
    let s = Codec.get_str r in
    match Pvr.Adversary.strategy_of_string s with
    | Some st -> st
    | None -> raise (Codec.Malformed ("unknown strategy " ^ s))
  in
  let p_mem_ceiling = Codec.get_u32 r in
  {
    p_seed;
    p_tiers;
    p_peering;
    p_ases;
    p_gen_seed;
    p_epochs;
    p_jobs;
    p_intern;
    p_bits;
    p_cache;
    p_salt_every;
    p_turnover;
    p_origins;
    p_ppo;
    p_anycast;
    p_drop;
    p_strategy;
    p_mem_ceiling;
  }

(* ---- request codec --------------------------------------------------------- *)

let encode_request req =
  let b = Buffer.create 128 in
  (match req with
  | Ping -> Codec.u32 b 1
  | Open_session p ->
      Codec.u32 b 2;
      encode_params b p
  | Run_epochs id ->
      Codec.u32 b 3;
      Codec.u32 b id
  | Query { q_text; q_viewer; q_json } ->
      Codec.u32 b 4;
      Codec.str b q_text;
      Codec.u32 b q_viewer;
      Codec.bool_ b q_json
  | Stats -> Codec.u32 b 5
  | Stall ms ->
      Codec.u32 b 6;
      Codec.u32 b ms
  | Close_session id ->
      Codec.u32 b 7;
      Codec.u32 b id);
  Buffer.contents b

let decode_request payload =
  Codec.decode payload (fun r ->
      match Codec.get_u32 r with
      | 1 -> Ping
      | 2 -> Open_session (decode_params r)
      | 3 -> Run_epochs (Codec.get_u32 r)
      | 4 ->
          let q_text = Codec.get_str r in
          let q_viewer = Codec.get_u32 r in
          let q_json = Codec.get_bool r in
          Query { q_text; q_viewer; q_json }
      | 5 -> Stats
      | 6 -> Stall (Codec.get_u32 r)
      | 7 -> Close_session (Codec.get_u32 r)
      | t -> raise (Codec.Malformed (Printf.sprintf "unknown request tag %d" t)))

(* ---- response codec -------------------------------------------------------- *)

let encode_response resp =
  let b = Buffer.create 128 in
  (match resp with
  | Ok_r -> Codec.u32 b 100
  | Busy -> Codec.u32 b 101
  | Err e ->
      Codec.u32 b 102;
      Codec.str b e
  | Session id ->
      Codec.u32 b 103;
      Codec.u32 b id
  | Verdict v ->
      Codec.u32 b 104;
      Codec.u32 b v.v_epoch;
      Codec.u32 b v.v_changes;
      Codec.u32 b v.v_dirty;
      Codec.u32 b v.v_detected;
      Codec.u32 b v.v_convicted;
      Codec.str b v.v_digest
  | Done { d_digest; d_convicted } ->
      Codec.u32 b 105;
      Codec.str b d_digest;
      Codec.u32 b d_convicted
  | Stats_r st ->
      Codec.u32 b 106;
      Codec.u32 b st.st_sessions;
      Codec.u32 b st.st_inflight;
      Codec.u32 b st.st_queue_depth;
      Codec.u32 b st.st_queue_cap;
      Codec.u32 b st.st_workers;
      Codec.bool_ b st.st_draining;
      Codec.u32 b st.st_world_hits;
      Codec.u32 b st.st_world_misses;
      Codec.u32 b st.st_world_keys;
      Codec.bool_ b st.st_sha256_accelerated
  | Rows rows ->
      Codec.u32 b 107;
      Codec.u32 b (List.length rows);
      List.iter (Codec.str b) rows);
  Buffer.contents b

let decode_response payload =
  Codec.decode payload (fun r ->
      match Codec.get_u32 r with
      | 100 -> Ok_r
      | 101 -> Busy
      | 102 -> Err (Codec.get_str r)
      | 103 -> Session (Codec.get_u32 r)
      | 104 ->
          let v_epoch = Codec.get_u32 r in
          let v_changes = Codec.get_u32 r in
          let v_dirty = Codec.get_u32 r in
          let v_detected = Codec.get_u32 r in
          let v_convicted = Codec.get_u32 r in
          let v_digest = Codec.get_str r in
          Verdict { v_epoch; v_changes; v_dirty; v_detected; v_convicted; v_digest }
      | 105 ->
          let d_digest = Codec.get_str r in
          let d_convicted = Codec.get_u32 r in
          Done { d_digest; d_convicted }
      | 106 ->
          let st_sessions = Codec.get_u32 r in
          let st_inflight = Codec.get_u32 r in
          let st_queue_depth = Codec.get_u32 r in
          let st_queue_cap = Codec.get_u32 r in
          let st_workers = Codec.get_u32 r in
          let st_draining = Codec.get_bool r in
          let st_world_hits = Codec.get_u32 r in
          let st_world_misses = Codec.get_u32 r in
          let st_world_keys = Codec.get_u32 r in
          let st_sha256_accelerated = Codec.get_bool r in
          Stats_r
            {
              st_sessions;
              st_inflight;
              st_queue_depth;
              st_queue_cap;
              st_workers;
              st_draining;
              st_world_hits;
              st_world_misses;
              st_world_keys;
              st_sha256_accelerated;
            }
      | 107 ->
          let n = Codec.get_u32 r in
          if n > 1_000_000 then raise (Codec.Malformed "row count");
          Rows (List.init n (fun _ -> Codec.get_str r))
      | t ->
          raise (Codec.Malformed (Printf.sprintf "unknown response tag %d" t)))

let send_request fd req = write_frame fd (encode_request req)
let send_response fd resp = write_frame fd (encode_response resp)

let recv_request fd =
  match decode_request (read_bounded ~max:max_request fd) with
  | Ok req -> Ok req
  | Error e -> Error e

let recv_response fd =
  match decode_response (read_frame fd) with
  | Ok resp -> Ok resp
  | Error e -> Error e
