type t = {
  mutable adj_in : Route.t Prefix.Map.t Asn.Map.t;
  mutable loc : Route.t Prefix.Map.t;
  mutable adj_out : Route.t Prefix.Map.t Asn.Map.t;
}

let create () =
  { adj_in = Asn.Map.empty; loc = Prefix.Map.empty; adj_out = Asn.Map.empty }

(* Every route entering a RIB passes through the interner, so with
   interning enabled all stored routes are canonical representatives and
   downstream [Route.equal] calls settle on the [==] fast path. *)
let canon = Option.map Intern.route

let update_table table ~neighbor prefix route =
  let per_prefix =
    Option.value (Asn.Map.find_opt neighbor table) ~default:Prefix.Map.empty
  in
  let per_prefix =
    match route with
    | Some r -> Prefix.Map.add prefix r per_prefix
    | None -> Prefix.Map.remove prefix per_prefix
  in
  Asn.Map.add neighbor per_prefix table

let set_in t ~neighbor prefix route =
  t.adj_in <- update_table t.adj_in ~neighbor prefix (canon route)

let get_in t ~neighbor prefix =
  Option.bind (Asn.Map.find_opt neighbor t.adj_in) (Prefix.Map.find_opt prefix)

let candidates t prefix =
  Asn.Map.fold
    (fun _ per_prefix acc ->
      match Prefix.Map.find_opt prefix per_prefix with
      | Some r -> r :: acc
      | None -> acc)
    t.adj_in []

let candidates_from t ~neighbors prefix =
  List.filter_map (fun n -> get_in t ~neighbor:n prefix) neighbors

let set_best t prefix route =
  t.loc <-
    (match canon route with
    | Some r -> Prefix.Map.add prefix r t.loc
    | None -> Prefix.Map.remove prefix t.loc)

let get_best t prefix = Prefix.Map.find_opt prefix t.loc

let set_out t ~neighbor prefix route =
  t.adj_out <- update_table t.adj_out ~neighbor prefix (canon route)

let get_out t ~neighbor prefix =
  Option.bind (Asn.Map.find_opt neighbor t.adj_out) (Prefix.Map.find_opt prefix)

let prefixes t =
  let set = ref Prefix.Set.empty in
  Asn.Map.iter
    (fun _ per_prefix ->
      Prefix.Map.iter (fun p _ -> set := Prefix.Set.add p !set) per_prefix)
    t.adj_in;
  Prefix.Map.iter (fun p _ -> set := Prefix.Set.add p !set) t.loc;
  Prefix.Set.elements !set

let in_neighbors t prefix =
  Asn.Map.fold
    (fun n per_prefix acc ->
      if Prefix.Map.mem prefix per_prefix then n :: acc else acc)
    t.adj_in []
  |> List.rev

(* Canonical description of everything this RIB holds for one prefix,
   across all three tables.  Map iteration is ASN-sorted and
   [Intern.encode] is representation-independent, so the string is a pure
   function of RIB contents — [""] when the prefix is absent everywhere.
   This is the unit the incremental RIB tracker ({!Rib_delta}) digests. *)
let prefix_entry t prefix =
  let buf = Buffer.create 128 in
  (match Prefix.Map.find_opt prefix t.loc with
  | Some r ->
      Buffer.add_string buf "b|";
      Buffer.add_string buf (Intern.encode r);
      Buffer.add_char buf '\n'
  | None -> ());
  let add_table tag table =
    Asn.Map.iter
      (fun n per_prefix ->
        match Prefix.Map.find_opt prefix per_prefix with
        | Some r ->
            Buffer.add_string buf tag;
            Buffer.add_char buf '|';
            Buffer.add_string buf (Asn.to_string n);
            Buffer.add_char buf '|';
            Buffer.add_string buf (Intern.encode r);
            Buffer.add_char buf '\n'
        | None -> ())
      table
  in
  add_table "i" t.adj_in;
  add_table "o" t.adj_out;
  Buffer.contents buf

let digest t =
  (* Canonical fingerprint of all three tables.  Map folds visit keys in
     sorted order and [Intern.encode] is byte-identical to [Route.encode]
     in both interning modes, so the digest is a pure function of RIB
     contents — the differential-oracle suite compares it across
     representations. *)
  let buf = Buffer.create 1024 in
  let add_route tag r =
    Buffer.add_string buf tag;
    Buffer.add_string buf (Intern.encode r);
    Buffer.add_char buf '\n'
  in
  let add_table tag table =
    Asn.Map.iter
      (fun n per_prefix ->
        Prefix.Map.iter
          (fun p r ->
            add_route
              (Printf.sprintf "%s|%s|%s|" tag (Asn.to_string n)
                 (Prefix.to_string p))
              r)
          per_prefix)
      table
  in
  add_table "in" t.adj_in;
  Prefix.Map.iter
    (fun p r -> add_route (Printf.sprintf "loc|%s|" (Prefix.to_string p)) r)
    t.loc;
  add_table "out" t.adj_out;
  Pvr_crypto.Sha256.digest_hex (Buffer.contents buf)
