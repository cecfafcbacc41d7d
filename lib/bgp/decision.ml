type step =
  | Highest_local_pref
  | Shortest_as_path
  | Lowest_origin
  | Lowest_med
  | Lowest_neighbor

let standard_pipeline =
  [ Highest_local_pref; Shortest_as_path; Lowest_origin; Lowest_med;
    Lowest_neighbor ]

(* Keep the routes minimizing [key]. *)
let keep_minimal key routes =
  match routes with
  | [] -> []
  | _ ->
      let best = List.fold_left (fun acc r -> min acc (key r)) max_int routes in
      List.filter (fun r -> key r = best) routes

let origin_rank (r : Route.t) =
  match r.origin with Route.Igp -> 0 | Route.Egp -> 1 | Route.Incomplete -> 2

let run_step step routes =
  match step with
  | Highest_local_pref -> keep_minimal (fun (r : Route.t) -> -r.local_pref) routes
  | Shortest_as_path -> keep_minimal Route.path_length routes
  | Lowest_origin -> keep_minimal origin_rank routes
  | Lowest_med -> keep_minimal (fun (r : Route.t) -> r.med) routes
  | Lowest_neighbor ->
      keep_minimal (fun (r : Route.t) -> Asn.to_int r.next_hop) routes

(* The standard pipeline in one comparison: each step keeps the routes
   minimizing its key, so the survivors of all five are the routes whose
   key tuple is lexicographically least.  The keys are exactly
   [run_step]'s. *)
let compare_standard (a : Route.t) (b : Route.t) =
  let c = Int.compare (-a.local_pref) (-b.local_pref) in
  if c <> 0 then c
  else
    let c = Int.compare (Route.path_length a) (Route.path_length b) in
    if c <> 0 then c
    else
      let c = Int.compare (origin_rank a) (origin_rank b) in
      if c <> 0 then c
      else
        let c = Int.compare a.med b.med in
        if c <> 0 then c
        else Int.compare (Asn.to_int a.next_hop) (Asn.to_int b.next_hop)
