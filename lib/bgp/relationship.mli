(** AS business relationships (Gao 2001): who pays whom determines which
    routes may be exported where.  The paper's §1 motivates PVR with exactly
    these agreements ("network A might promise network B that it will act as
    B's provider, or it might enter into a 'partial transit'
    relationship"). *)

type t =
  | Customer  (** the neighbor is my customer (it pays me) *)
  | Peer      (** settlement-free peer *)
  | Provider  (** the neighbor is my provider (I pay it) *)

val invert : t -> t
(** The relationship as seen from the other side. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val export_allowed : learned_from:t -> to_:t -> bool
(** The Gao–Rexford export rule: routes learned from customers are exported
    to everyone; routes learned from peers or providers are exported only to
    customers. *)
