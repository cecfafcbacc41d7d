(** Confidentiality audit (§2.3 Confidentiality, experiment E7).

    "No AS will learn information from running PVR that it could not learn
    in the unsecured system, unless this was explicitly authorized by α."

    We make "information learned" concrete as a set of {!fact}s and give
    each verification scheme a {e view}: the facts a party extracts from its
    transcript.  A fact is an {e excess} leak if it is not derivable from
    the party's plain-BGP baseline by the closure rules of §2.3:

    - the beneficiary of a kept shortest-route promise already learns the
      minimum input length from the exported route itself ("Y learns the
      values of some of X's input variables, even though, according to α,
      it may not have access"), and
    - a threshold bit b_i is derivable from a known minimum length.

    PVR transcripts must produce zero excess facts; the NetReview-style
    full-disclosure baseline leaks every input route to every neighbor. *)

module Bgp = Pvr_bgp

type fact =
  | Knows_route of { provider : Bgp.Asn.t; route : Bgp.Route.t }
      (** the party knows this exact input route of A *)
  | Knows_min_length of int
      (** the party knows the length of A's shortest input *)
  | Knows_bit of { index : int; value : bool }
      (** the party knows threshold bit b_index *)
  | Knows_route_count_positive
      (** the party knows at least one input existed *)

type view = fact list

(** {2 Views per scheme} *)

val plain_bgp_beneficiary : exported:Bgp.Route.t option -> view
(** What B learns from ordinary BGP under an (assumed kept) shortest-route
    promise: the exported route's existence and, by the promise, the
    minimum length. *)

val plain_bgp_provider : me:Bgp.Asn.t -> my_route:Bgp.Route.t -> view
(** What N_i knows anyway: its own announcement (hence bit b_{|r_i|}). *)

val pvr_min_beneficiary :
  k:int -> openings:(int * bool) list -> exported:Bgp.Route.t option -> view
(** Facts B extracts from a §3.3 transcript: all bits plus the export. *)

val pvr_min_provider :
  me:Bgp.Asn.t -> my_route:Bgp.Route.t -> revealed_bit:(int * bool) option -> view
(** Facts N_i extracts: its own route plus the one disclosed bit. *)

val netreview_neighbor : inputs:(Bgp.Asn.t * Bgp.Route.t) list -> view
(** Full disclosure: every neighbor sees every input route. *)

(** {2 The audit} *)

val derivable : baseline:view -> fact -> bool
(** Closure: is the fact implied by the baseline facts? *)

val excess : baseline:view -> observed:view -> fact list
(** Observed facts not derivable from the baseline = confidentiality
    violations.  Empty for PVR, size k-ish for NetReview. *)

val excess_count : baseline:view -> observed:view -> int

(** {2 Quantitative meter (E14)}

    A fixed bit-accounting convention turns fact sets into comparable
    information bounds: a threshold bit or input-count fact is 1 bit, a
    minimum length is 5 bits (an integer in 1..{!Pvr.Proto_min.default_max_path_len}),
    a full route is 32 bits per hop.  The absolute numbers are coarse by
    design — what the E14 matrix relies on is monotonicity and seeded
    determinism. *)

val pooled : view list -> view
(** Union of coalition members' views, deduplicated — what colluding
    neighbors learn by pooling disclosed bits. *)

val alpha_authorizes :
  Access_control.t -> viewer:Bgp.Asn.t -> fact -> bool
(** Does the α access-control map explicitly authorize [viewer] to learn
    [fact] beyond plain BGP?  Threshold bits and the input count map to the
    public ["op:min"] vertex, a minimum length to the viewer's promise
    output variable, a learned route to that provider's input variable. *)

type audit = {
  au_viewer : string;
  au_baseline_bits : int;
  au_observed_bits : int;
  au_excess : fact list;
  au_excess_bits : int;  (** bits beyond the plain-BGP closure *)
  au_unauthorized_bits : int;  (** excess bits α does not authorize *)
}

val audit :
  viewer:string ->
  ?authorized:(fact -> bool) ->
  baseline:view ->
  observed:view ->
  unit ->
  audit
(** Build one audit row; [authorized] (default: nothing) is typically
    [alpha_authorizes α ~viewer].  Increments ["leakage.audits"] and
    ["leakage.bits.excess"]. *)

val validate_privacy_claims : audit list -> (unit, string list) result
(** §2.3 Confidentiality as an assertion: [Ok ()] iff no audit shows
    unauthorized excess bits; otherwise one error line per violating
    viewer. *)

(** {2 Disclosure ledger}

    Threaded through {!Pvr.Judge} and {!Pvr.Runner} so every
    bit a round actually disclosed is accounted per receiving party. *)

val court : Bgp.Asn.t
(** Pseudo-viewer (ASN 0) for facts surfaced to the judge by challenge
    responses. *)

module Ledger : sig
  type ledger

  val create : unit -> ledger

  val record : ledger -> viewer:Bgp.Asn.t -> fact -> unit
  (** Account a disclosed fact (idempotent per (viewer, fact)); increments
      ["leakage.bits.disclosed"]. *)

  val record_refusal : ledger -> unit
  (** Account an α-refused disclosure attempt: a viewer asked for (or a
      query tried to show it) something {!alpha_authorizes} rejects.
      Nothing was revealed, but enforcement is auditable — increments
      ["leakage.refusals"] and the ledger's count. *)

  val refusal_count : ledger -> int
  (** Total refusals across all viewers. *)

  val view : ledger -> viewer:Bgp.Asn.t -> view
  val viewers : ledger -> Bgp.Asn.t list

  val bits : ledger -> int
  (** The bits of every viewer's deduplicated view, summed. *)
end
