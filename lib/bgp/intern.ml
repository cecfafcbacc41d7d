(* Hash-consing for AS paths and routes.

   The simulator and engine shuffle the same few thousand distinct routes
   through many RIB writes, equality checks and digest encodings per
   epoch.  Interning maps every structurally-equal path/route to one
   canonical representative, so [==] (the fast path inside {!Route.equal})
   settles almost every comparison, storage is shared, and the injective
   {!Route.encode} bytes — recomputed for every vertex snapshot every epoch
   otherwise — are memoized per canonical route.

   Each domain owns its toggle and its tables, held in domain-local
   storage: nothing is shared, so no lookup takes a lock, and one domain
   turning interning off never clears another's tables.  Digests never
   depend on physical identity ({!Route.equal} falls back to structural
   comparison), so a route interned on one domain and compared on another
   behaves exactly like an uninterned one.

   The toggle is off by default: with interning disabled every function is
   the identity (or plain [Route.encode]), which is what the
   differential-oracle tests compare against. *)

(* ---- structural hashing (no allocation) ---------------------------------- *)

let fnv_prime = 0x100000001b3

(* FNV-1a offset basis truncated to OCaml's 63-bit int. *)
let fnv_basis = 0x3bf29ce484222325

let mix h x = (h lxor x) * fnv_prime land max_int

let hash_path p =
  List.fold_left (fun h a -> mix h (Asn.to_int a)) fnv_basis p land max_int

let rec equal_path p q =
  p == q
  ||
  match (p, q) with
  | [], [] -> true
  | a :: p', b :: q' -> Asn.equal a b && equal_path p' q'
  | _ -> false

let hash_route (r : Route.t) =
  let h = mix fnv_basis r.prefix.Prefix.addr in
  let h = mix h r.prefix.Prefix.len in
  let h = mix h (hash_path r.as_path) in
  let h = mix h (Asn.to_int r.next_hop) in
  let h = mix h r.local_pref in
  let h = mix h r.med in
  let h =
    mix h (match r.origin with Route.Igp -> 0 | Egp -> 1 | Incomplete -> 2)
  in
  List.fold_left (fun h (a, v) -> mix (mix h a) v) h r.communities land max_int

module Path_tbl = Hashtbl.Make (struct
  type t = Asn.t list

  let equal = equal_path
  let hash = hash_path
end)

module Route_tbl = Hashtbl.Make (struct
  type t = Route.t

  let equal = Route.equal
  let hash = hash_route
end)

let c_path_hits = Pvr_obs.counter "intern.path.hits"
let c_path_misses = Pvr_obs.counter "intern.path.misses"
let c_route_hits = Pvr_obs.counter "intern.route.hits"
let c_route_misses = Pvr_obs.counter "intern.route.misses"
let c_encode_hits = Pvr_obs.counter "intern.encode.hits"
let c_encode_misses = Pvr_obs.counter "intern.encode.misses"

(* ---- per-domain state ---------------------------------------------------- *)

type state = {
  mutable on : bool;
  paths : Asn.t list Path_tbl.t; (* structural key -> canonical *)
  routes : Route.t Route_tbl.t;
  encodes : string Route_tbl.t;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        on = false;
        paths = Path_tbl.create 1024;
        routes = Route_tbl.create 1024;
        encodes = Route_tbl.create 1024;
      })

let reset () =
  let s = Domain.DLS.get key in
  Path_tbl.reset s.paths;
  Route_tbl.reset s.routes;
  Route_tbl.reset s.encodes

let set_enabled b =
  (Domain.DLS.get key).on <- b;
  (* Dropping the toggle releases the canonical storage: a disabled interner
     holds no routes, so tests and the CLI can flip modes without leaking
     one mode's table into the other's measurements. *)
  if not b then reset ()

let enabled () = (Domain.DLS.get key).on

(* ---- lookups ------------------------------------------------------------- *)

let intern_path s p =
  match Path_tbl.find_opt s.paths p with
  | Some canonical ->
      Pvr_obs.incr c_path_hits;
      canonical
  | None ->
      Pvr_obs.incr c_path_misses;
      Path_tbl.add s.paths p p;
      p

let path p =
  let s = Domain.DLS.get key in
  if not s.on then p else intern_path s p

(* Route interning shared by [route] and [encode]: the canonical route's
   [as_path] is itself interned first. *)
let intern_route s (r : Route.t) =
  match Route_tbl.find_opt s.routes r with
  | Some canonical ->
      Pvr_obs.incr c_route_hits;
      canonical
  | None ->
      Pvr_obs.incr c_route_misses;
      let as_path = intern_path s r.as_path in
      let canonical = if as_path == r.as_path then r else { r with as_path } in
      Route_tbl.add s.routes canonical canonical;
      canonical

let route r =
  let s = Domain.DLS.get key in
  if not s.on then r else intern_route s r

let encode r =
  let s = Domain.DLS.get key in
  if not s.on then Route.encode r
  else
    match Route_tbl.find_opt s.encodes r with
    | Some e ->
        Pvr_obs.incr c_encode_hits;
        e
    | None ->
        Pvr_obs.incr c_encode_misses;
        let e = Route.encode r in
        (* Key by the canonical representative so structurally-equal lookups
           from any copy of the route hit the same entry. *)
        Route_tbl.add s.encodes (intern_route s r) e;
        e

type stats = { live_paths : int; live_routes : int; memoized_encodes : int }

let stats () =
  let s = Domain.DLS.get key in
  {
    live_paths = Path_tbl.length s.paths;
    live_routes = Route_tbl.length s.routes;
    memoized_encodes = Route_tbl.length s.encodes;
  }
