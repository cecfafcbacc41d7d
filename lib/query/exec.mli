(** Cost-based planning and execution of {!Lang} queries over an
    {!Evidence_index}, behind the α access-control map.

    The planner extracts top-level conjuncts from the [where] clause,
    costs every applicable access path (prover posting list, prefix trie
    node — exact or subtree —, epoch range, full scan) with exact
    candidate counts from the index, and picks the cheapest; ties break
    deterministically toward the more selective path kind.  The chosen
    path only yields {e candidates} — the full predicate always runs as a
    residual filter, so plans can never change answers, only cost.

    Counters: ["query.plans"] per planned query, ["query.index.hits"] for
    candidates fetched through a non-scan path, ["query.rows"] for rows
    returned.  α refusals go through
    {!Pvr.Leakage.Ledger.record_refusal} (["leakage.refusals"]). *)

module Bgp = Pvr_bgp

type access =
  | Scan
  | Prover_idx of int
  | Prefix_idx of { prefix : Bgp.Prefix.t; exact : bool }
  | Epoch_idx of { lo : int; hi : int }

type plan = {
  pl_access : access;
  pl_cost : int;  (** exact candidate count of the chosen path *)
  pl_considered : (string * int) list;
      (** every candidate path and its cost, scan first *)
}

val access_to_string : access -> string
val plan_to_string : plan -> string

val explain : plan -> string
(** One line: the chosen path plus every considered alternative. *)

val plan : Evidence_index.t -> Lang.t -> plan
(** Plan without executing (increments ["query.plans"]). *)

val authorized_for_row : viewer:Bgp.Asn.t -> Row.t -> bool
(** Is [viewer] α-authorized to see this row?  True for the court
    pseudo-viewer (ASN 0), the row's beneficiary (its promise output
    variable) and its providers (their own input variables) — the
    public [op:min] vertex deliberately does {e not} grant row access. *)

val key_compare : Lang.order_key -> Row.t -> Row.t -> int
(** The [order by] comparator ([stable_sort]ed over natural journal
    order, so ties are deterministic). *)

type result_ = {
  qr_rows : Row.t list;  (** post-α, ordered, limited *)
  qr_refused : int;
      (** matching rows withheld from this viewer by α — accounted in the
          disclosure ledger, never returned *)
  qr_plan : plan;
}

val run :
  ?ledger:Pvr.Leakage.Ledger.ledger ->
  Evidence_index.t ->
  viewer:Bgp.Asn.t ->
  Lang.t ->
  result_
(** Plan and execute for [viewer].  Unauthorized rows are dropped before
    ordering and limit (a limit is never padded with invisible rows);
    refusals are accounted in [ledger] (a throwaway one when omitted, so
    counters still move). *)

val to_json : query:Lang.t -> viewer:Bgp.Asn.t -> result_ -> Pvr_obs.Json.t

val render_json : query:Lang.t -> viewer:Bgp.Asn.t -> result_ -> string
(** Single line, fixed field order — byte-identical for identical
    results, which the crash-recovery smoke diffs. *)

val render_text : viewer:Bgp.Asn.t -> result_ -> string
(** Human-readable table plus a row/refusal/plan footer. *)
