(* Hash-consing for AS paths and routes.

   At internet scale the simulator and engine shuffle the same few thousand
   distinct routes through millions of RIB writes, equality checks and
   digest encodings per epoch.  Interning maps every structurally-equal
   path/route to one canonical representative with a compact integer id, so
   [==] (the fast path inside {!Route.equal}) settles almost every
   comparison, storage is shared, and the injective {!Route.encode} bytes —
   recomputed for every vertex snapshot every epoch otherwise — are
   memoized per canonical route.

   Concurrency: every lookup runs against a {e per-domain arena} held in
   domain-local storage, so hits — the overwhelming majority at steady
   state — are lock-free.  A miss creates a provisional canonical in the
   arena and appends it to a local log; {!flush} (called by each pool
   worker on its own domain before the epoch barrier, and implicitly by
   the read APIs) merges the log into the mutex-guarded global tables,
   assigning dense ids first-merged-wins and re-pointing arena entries at
   the winning canonical when another domain interned the same value
   first.  The previous design took one global mutex on {e every} call,
   including hits, which serialized the engine's worker pool (E13).

   Cross-domain provisional duplicates are harmless: digests never depend
   on canonical ids or physical identity ({!Route.equal} falls back to
   structural comparison), so the merge only affects sharing, never
   semantics.

   The toggle is global and off by default: with interning disabled every
   function is the identity (or plain [Route.encode]), which is what the
   differential-oracle tests compare against.  Disabling (or {!reset})
   bumps a generation counter; other domains' arenas are unreachable from
   the resetter, so they self-invalidate lazily on their next use. *)

let enabled_flag = ref false
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

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

(* ---- global canonical tables (mutex-guarded, merge target) ---------------- *)

(* Values carry the canonical representative plus its dense id (assigned in
   merge order, starting at 0). *)
let g_paths : (Asn.t list * int) Path_tbl.t = Path_tbl.create 4096
let g_routes : (Route.t * int) Route_tbl.t = Route_tbl.create 4096
let g_encodes : string Route_tbl.t = Route_tbl.create 4096

(* Bumped by [reset]; arenas compare their stamp on every use and clear
   themselves when stale. *)
let generation = Atomic.make 0

let c_path_hits = Pvr_obs.counter "intern.path.hits"
let c_path_misses = Pvr_obs.counter "intern.path.misses"
let c_route_hits = Pvr_obs.counter "intern.route.hits"
let c_route_misses = Pvr_obs.counter "intern.route.misses"
let c_encode_hits = Pvr_obs.counter "intern.encode.hits"
let c_encode_misses = Pvr_obs.counter "intern.encode.misses"
let c_merge_dups = Pvr_obs.counter "intern.merge.dups"
let g_paths_live = Pvr_obs.gauge "intern.paths.live"
let g_routes_live = Pvr_obs.gauge "intern.routes.live"

(* ---- per-domain arenas ---------------------------------------------------- *)

type arena = {
  mutable a_gen : int;
  a_paths : Asn.t list Path_tbl.t; (* structural key -> canonical *)
  a_routes : Route.t Route_tbl.t;
  a_encodes : string Route_tbl.t;
  (* Provisional canonicals created on this domain since the last flush,
     in creation order (kept reversed). *)
  mutable new_paths : Asn.t list list;
  mutable new_routes : Route.t list;
  mutable new_encodes : (Route.t * string) list;
}

let fresh_arena () =
  {
    a_gen = Atomic.get generation;
    a_paths = Path_tbl.create 1024;
    a_routes = Route_tbl.create 1024;
    a_encodes = Route_tbl.create 1024;
    new_paths = [];
    new_routes = [];
    new_encodes = [];
  }

let arena_key = Domain.DLS.new_key fresh_arena

let clear_arena a =
  Path_tbl.reset a.a_paths;
  Route_tbl.reset a.a_routes;
  Route_tbl.reset a.a_encodes;
  a.new_paths <- [];
  a.new_routes <- [];
  a.new_encodes <- []

let arena () =
  let a = Domain.DLS.get arena_key in
  let gen = Atomic.get generation in
  if a.a_gen <> gen then begin
    clear_arena a;
    a.a_gen <- gen
  end;
  a

(* ---- reset / toggle ------------------------------------------------------- *)

let reset () =
  with_lock @@ fun () ->
  Path_tbl.reset g_paths;
  Route_tbl.reset g_routes;
  Route_tbl.reset g_encodes;
  Atomic.incr generation;
  (* The caller's own arena is reachable — clear it eagerly so a
     same-domain re-population starts from ids dense at 0. *)
  let a = Domain.DLS.get arena_key in
  clear_arena a;
  a.a_gen <- Atomic.get generation;
  Pvr_obs.set_gauge g_paths_live 0;
  Pvr_obs.set_gauge g_routes_live 0

let set_enabled b =
  enabled_flag := b;
  (* Dropping the toggle releases the canonical storage: a disabled interner
     holds no routes, so tests and the CLI can flip modes without leaking
     one mode's table into the other's measurements. *)
  if not b then reset ()

let enabled () = !enabled_flag

(* ---- lock-free lookup paths ----------------------------------------------- *)

let path p =
  if not !enabled_flag then p
  else begin
    let a = arena () in
    match Path_tbl.find_opt a.a_paths p with
    | Some canonical ->
        Pvr_obs.incr c_path_hits;
        canonical
    | None ->
        Pvr_obs.incr c_path_misses;
        Path_tbl.add a.a_paths p p;
        a.new_paths <- p :: a.new_paths;
        p
  end

(* Arena-local route interning shared by [route] and [encode]: the
   canonical route's [as_path] is itself interned first. *)
let intern_route_local a (r : Route.t) =
  match Route_tbl.find_opt a.a_routes r with
  | Some canonical ->
      Pvr_obs.incr c_route_hits;
      canonical
  | None ->
      Pvr_obs.incr c_route_misses;
      let as_path =
        match Path_tbl.find_opt a.a_paths r.as_path with
        | Some canonical ->
            Pvr_obs.incr c_path_hits;
            canonical
        | None ->
            Pvr_obs.incr c_path_misses;
            Path_tbl.add a.a_paths r.as_path r.as_path;
            a.new_paths <- r.as_path :: a.new_paths;
            r.as_path
      in
      let canonical = if as_path == r.as_path then r else { r with as_path } in
      Route_tbl.add a.a_routes canonical canonical;
      a.new_routes <- canonical :: a.new_routes;
      canonical

let route r = if not !enabled_flag then r else intern_route_local (arena ()) r

let encode r =
  if not !enabled_flag then Route.encode r
  else begin
    let a = arena () in
    match Route_tbl.find_opt a.a_encodes r with
    | Some s ->
        Pvr_obs.incr c_encode_hits;
        s
    | None ->
        Pvr_obs.incr c_encode_misses;
        let s = Route.encode r in
        (* Key by the canonical representative so structurally-equal lookups
           from any copy of the route hit the same entry. *)
        let canonical = intern_route_local a r in
        Route_tbl.add a.a_encodes canonical s;
        a.new_encodes <- (canonical, s) :: a.new_encodes;
        s
  end

(* ---- canonicalizing merge -------------------------------------------------- *)

let flush () =
  if !enabled_flag then begin
    let a = arena () in
    if
      a.new_paths <> [] || a.new_routes <> [] || a.new_encodes <> []
    then
      with_lock @@ fun () ->
      (* Merge in creation order so a single-domain run gets exactly the
         dense first-seen ids the old global interner assigned. *)
      List.iter
        (fun p ->
          match Path_tbl.find_opt g_paths p with
          | Some (canonical, _) ->
              (* Another domain merged this path first: re-point the arena
                 so future hits share the winning spine. *)
              Pvr_obs.incr c_merge_dups;
              if canonical != p then Path_tbl.replace a.a_paths p canonical
          | None -> Path_tbl.add g_paths p (p, Path_tbl.length g_paths))
        (List.rev a.new_paths);
      List.iter
        (fun r ->
          match Route_tbl.find_opt g_routes r with
          | Some (canonical, _) ->
              Pvr_obs.incr c_merge_dups;
              if canonical != r then Route_tbl.replace a.a_routes r canonical
          | None -> Route_tbl.add g_routes r (r, Route_tbl.length g_routes))
        (List.rev a.new_routes);
      List.iter
        (fun (r, s) ->
          if not (Route_tbl.mem g_encodes r) then Route_tbl.add g_encodes r s)
        (List.rev a.new_encodes);
      a.new_paths <- [];
      a.new_routes <- [];
      a.new_encodes <- [];
      Pvr_obs.set_gauge g_paths_live (Path_tbl.length g_paths);
      Pvr_obs.set_gauge g_routes_live (Route_tbl.length g_routes)
  end

(* ---- id / stats reads (flush the caller's arena, then read global) -------- *)

let route_id r =
  if not !enabled_flag then None
  else begin
    flush ();
    with_lock @@ fun () ->
    match Route_tbl.find_opt g_routes r with
    | Some (_, id) -> Some id
    | None -> None
  end

type stats = { live_paths : int; live_routes : int; memoized_encodes : int }

let stats () =
  flush ();
  with_lock @@ fun () ->
  {
    live_paths = Path_tbl.length g_paths;
    live_routes = Route_tbl.length g_routes;
    memoized_encodes = Route_tbl.length g_encodes;
  }
