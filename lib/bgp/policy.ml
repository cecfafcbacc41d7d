type match_cond =
  | Match_prefix_exact of Prefix.t
  | Match_prefix_in of Prefix.t
  | Match_community of Route.community
  | Match_as_in_path of Asn.t
  | Match_next_hop of Asn.t
  | Match_path_length_le of int
  | Match_any

type action =
  | Set_local_pref of int
  | Set_med of int
  | Add_community of Route.community
  | Prepend of Asn.t * int

type decision = Accept | Reject

type clause = {
  matches : match_cond list;
  actions : action list;
  verdict : decision;
}

type t = clause list

let matches cond (r : Route.t) =
  match cond with
  | Match_prefix_exact p -> Prefix.equal p r.prefix
  | Match_prefix_in p -> Prefix.contains p r.prefix
  | Match_community c -> Route.has_community c r
  | Match_as_in_path a -> Route.through a r
  | Match_next_hop a -> Asn.equal a r.next_hop
  | Match_path_length_le n -> Route.path_length r <= n
  | Match_any -> true
