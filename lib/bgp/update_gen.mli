(** Synthetic BGP update workloads.

    §3.8 worries about signing cost "during BGP message bursts"; operational
    update traces are not available in this environment, so experiment E5
    drives the batching bench with bursty synthetic traces: quiet periods of
    single updates interleaved with bursts (as after a session reset or a
    flap), with burst sizes drawn from a truncated geometric distribution. *)

type event = { at_ms : int; route : Route.t }

val bursty :
  Pvr_crypto.Drbg.t ->
  duration_ms:int ->
  base_rate_per_s:float ->
  burst_every_ms:int ->
  burst_size_mean:int ->
  origin:Asn.t ->
  event list
(** Events sorted by timestamp.  Routes are announcements of random prefixes
    with short random paths ending at [origin]. *)

val batches : window_ms:int -> event list -> Route.t list list
(** Group a trace into signing batches by fixed time window; empty windows
    are dropped. *)

(** Epoch-granularity churn for the verification engine: a fixed universe of
    (origin, prefix) slots, each live or withdrawn, stepped by flipping a
    DRBG-chosen fraction per epoch.  Unlike {!bursty} (timestamped message
    bursts for the signing bench), churn models the steady state §3.8 argues
    about — most routes survive an epoch unchanged, so an incremental
    verifier should skip them. *)
module Churn : sig
  type t

  type change =
    | Announce of Asn.t * Prefix.t
    | Withdraw of Asn.t * Prefix.t

  val create :
    ?anycast:int -> origins:Asn.t list -> prefixes_per_origin:int -> unit -> t
  (** Slot universe; every slot starts withdrawn.  Slot prefixes are
      deterministic /24s inside 10.0.0.0/8 (distinct per slot), except for
      [anycast] extra prefixes each announced by {e two} origins (two slots,
      one prefix).  Flipping one anycast slot changes the route set of a
      prefix that stays reachable — the partial-churn case an incremental
      verifier's memo tables exist for.  Ignored with fewer than two
      origins. *)

  val size : t -> int
  val live_count : t -> int

  val seed : t -> Simulator.t -> change list
  (** Announce every withdrawn slot (epoch 1's full table load).  Applies
      the originations to the simulator; the caller runs it to
      convergence. *)

  val step :
    Pvr_crypto.Drbg.t -> turnover:float -> t -> Simulator.t -> change list
  (** Flip [turnover · size] distinct slots (live ⇄ withdrawn), chosen by
      the DRBG; applies the changes to the simulator.  [turnover 0.] is a
      quiet epoch, [1.] a full-table flap. *)
end
