(** The BGP best-route decision process.

    §2.1: "An example would be an operator for selecting, from a given set
    of routes, the routes with minimal AS path length (the second step in
    BGP).  A pipeline of such operators, one for each attribute, makes up
    the usual route selection process."  This module is that pipeline in its
    ordinary, non-verifiable form; {!Pvr_rfg} re-expresses the same steps as
    route-flow-graph operators. *)

type step =
  | Highest_local_pref
  | Shortest_as_path
  | Lowest_origin
  | Lowest_med
  | Lowest_neighbor
      (** deterministic tie-break on the next-hop AS number *)

(** {2 Oracle}

    The pipeline step by step, as §2.1 describes it.  [pvr] never runs
    it: the test [one-pass best = step-by-step fold] holds
    {!compare_standard} to this fold. *)

val standard_pipeline : step list

val run_step : step -> Route.t list -> Route.t list
(** Keep only the routes surviving this step (never empties a non-empty
    input). *)

(** {2 Selection} *)

val compare_standard : Route.t -> Route.t -> int
(** The standard pipeline as one comparison: negative when the first route
    survives a step the second does not, that is when its (highest
    local-pref, shortest path, lowest origin, lowest MED, lowest next hop)
    key is lexicographically smaller; [0] on a full tie.  A single pass
    that keeps the first route no later one beats picks what
    {!standard_pipeline}'s step-by-step fold picks. *)
