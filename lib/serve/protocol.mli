(** Wire protocol for the `pvr serve` daemon: length-framed
    {!Pvr_store.Codec} records over a byte stream (Unix domain socket or
    TCP).  Each frame is a 4-byte big-endian payload length followed by
    the payload; the first u32 of the payload is the message tag.

    The protocol is request/response except for [Run_epochs], which
    streams one [Verdict] frame per completed epoch and terminates with
    [Done] (or [Err]/[Busy]).  A connection carries at most one in-flight
    request. *)

exception Closed
(** Peer hung up (EOF, EPIPE, ECONNRESET) — the connection is dead. *)

val max_frame : int
(** Largest frame a client reads (16 MiB): the bound on responses. *)

val max_request : int
(** Largest request frame {!recv_request} accepts (64 KiB).  A larger
    length prefix raises {!Closed} before the payload is allocated. *)

type verdict = {
  v_epoch : int;
  v_changes : int;
  v_dirty : int;
  v_detected : int;
  v_convicted : int;
  v_digest : string;  (** running hash-chain digest after this epoch *)
}

type stats_reply = {
  st_sessions : int;
  st_inflight : int;
  st_queue_depth : int;
  st_queue_cap : int;
  st_workers : int;
  st_draining : bool;
  st_world_hits : int;  (** sessions whose world came from the world cache *)
  st_world_misses : int;  (** sessions that built their world *)
  st_world_keys : int;  (** RSA keys the world cache holds *)
  st_sha256_accelerated : bool;
      (** the daemon's SHA-256 runs on the CPU's SHA extensions
          (["crypto.sha256.accelerated"]) *)
}

type request =
  | Ping
  | Open_session of Workload.params
  | Run_epochs of int
  | Query of { q_text : string; q_viewer : int; q_json : bool }
  | Stats
  | Stall of int
      (** Occupy one pool worker for N ms — a test/ops aid that makes
          backpressure deterministic to provoke. *)
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

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit
val recv_request : Unix.file_descr -> (request, string) result
val recv_response : Unix.file_descr -> (response, string) result
