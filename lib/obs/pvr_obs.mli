(** Metrics and tracing for the PVR stack.

    §3.8 of the paper argues the overhead of verification is low — one
    SHA-256 per commitment bit and one RSA signature per update.  This
    module turns that argument into measurements: the crypto, wire, gossip,
    simulator and runner layers increment named {e counters} (operation and
    byte counts) and record named {e spans} (latency histograms) into a
    global registry, which {!Snapshot} exports as JSON for
    [BENCH_pvr.json] and the CLI's [--stats] flag.

    Instrumentation is {e disabled by default} and is a single branch on a
    [bool ref] when off, so the hot paths pay nothing measurable.  Counter
    updates are atomic and histogram/registry mutations are mutex-guarded,
    so instrumented code may run on multiple domains (the
    {!Pvr_engine.Pool} workers) without losing counts. *)

val set_enabled : bool -> unit
(** Turn global metric collection on or off (default: off). *)

val enabled : unit -> bool

(** {2 Counters} *)

type counter
(** A monotonic named counter (also used for byte accumulators).
    Internally sharded across per-domain cells so concurrent increments
    from engine worker domains never contend on one atomic; {!value} and
    snapshot capture fold the cells. *)

val counter : string -> counter
(** Get or create the registered counter with that name.  Counter names use
    dotted paths, e.g. ["crypto.sha256.ops"] or ["wire.commit.bytes"]. *)

val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val value : counter -> int
(** Fold of the per-domain cells.  Exact once concurrent writers have
    been joined (the engine only reads at epoch barriers and snapshot
    capture); mid-flight reads may lag in-progress increments, exactly as
    a racing read of a single atomic would. *)

(** {2 Gauges} *)

type gauge
(** A named {e level} — the current size of something (queued serve
    sessions, heap words) rather than a monotonic count.  Writes are atomic
    stores, so gauges may be set from any domain. *)

val gauge : string -> gauge
(** Get or create the registered gauge with that name.  Gauge names use
    dotted paths, e.g. ["serve.queue.depth"] or ["engine.gc.heap_words"]. *)

val set_gauge : gauge -> int -> unit
(** Overwrite the gauge's current value.  No-op while disabled. *)

val gauge_read : gauge -> int

val fixed_gauge : string -> int -> unit
(** Register a gauge that states a fact about the process, such as
    ["crypto.sha256.accelerated"], and set it to that value.  It is set
    even while metrics are disabled, and {!reset_all} keeps it. *)

(** {2 Latency histograms and spans} *)

type histogram
(** Log-bucketed latency histogram (power-of-two nanosecond buckets). *)

val histogram : string -> histogram
(** Get or create the registered histogram with that name. *)

val observe : histogram -> float -> unit
(** Record one duration, in seconds.  No-op while disabled. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and records its wall-clock duration in the
    histogram [name].  While disabled it is exactly [f ()] — the clock is
    never read. *)

val reset_all : unit -> unit
(** Zero every registered counter, histogram and gauge except the
    {!fixed_gauge}s (registrations remain). *)

(** {2 JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact (single-line) rendering; strings are escaped, non-finite
      floats become [null]. *)
end

(** {2 Snapshots} *)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;  (** seconds *)
  hs_min : float;  (** seconds; 0 when the histogram is empty *)
  hs_max : float;
  hs_buckets : (float * int) list;
      (** non-empty buckets as (upper bound in seconds, count) *)
}

val quantile : histogram_stats -> float -> float
(** Approximate quantile, in seconds: the upper bound of the bucket that
    holds it, clamped to \[[hs_min], [hs_max]\]. *)

module Snapshot : sig
  type t
  (** An immutable copy of every registered counter and histogram. *)

  val capture : unit -> t

  val counter_value : t -> string -> int
  (** 0 for names never registered. *)

  val gauges : t -> (string * int) list
  (** Sorted by name. *)

  val gauge_value : t -> string -> int
  (** 0 for names never registered. *)

  val histograms : t -> (string * histogram_stats) list

  val diff : before:t -> after:t -> t
  (** Per-name subtraction of counts, sums and buckets — the activity that
      happened between the two captures.  [hs_min]/[hs_max] are taken from
      [after] (approximation: log-bucketed histograms cannot subtract
      extrema).  Gauges are levels, not rates: the diff carries the
      [after] readings unchanged. *)

  val to_json : t -> Json.t
  (** [{"counters": {name: int, ...},
        "gauges": {name: int, ...},
        "histograms": {name: {"count", "sum_ms", "min_ms", "max_ms",
                              "p50_ms", "p95_ms"}, ...}}] *)
end
