(** Router policies: the predicate/action language real configurations are
    written in (route-maps, in vendor terms).

    A policy is a first-match list of clauses; each clause is a conjunction
    of matches plus a list of actions ending in accept or reject.  §4 of the
    paper asks for "language support for compiling a high-level policy
    description (or router configuration file) into a compact route-flow
    graph" — {!Pvr_rfg.Compiler} consumes this representation. *)

type match_cond =
  | Match_prefix_exact of Prefix.t
  | Match_prefix_in of Prefix.t        (** route's prefix within this block *)
  | Match_community of Route.community
  | Match_as_in_path of Asn.t
  | Match_next_hop of Asn.t
  | Match_path_length_le of int
  | Match_any

type action =
  | Set_local_pref of int
  | Set_med of int
  | Add_community of Route.community
  | Prepend of Asn.t * int             (** prepend own ASN n extra times *)

type decision = Accept | Reject

type clause = {
  matches : match_cond list;  (** conjunction; empty list matches all *)
  actions : action list;
  verdict : decision;
}

type t = clause list
(** First matching clause wins; a route matching no clause is rejected
    (deny-by-default, as on real routers). *)

val matches : match_cond -> Route.t -> bool
