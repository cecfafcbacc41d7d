type entry = {
  prefix : Prefix.t;
  mutable best : Route.t option;
  adj_in : Route.t option array;
  adj_out : Route.t option array;
  mutable dirty : bool;
}

type t = {
  neighbors : Asn.t array; (* ascending: index = slot *)
  in_labels : string array; (* "i|AS<n>|" per slot, for [prefix_entry] *)
  out_labels : string array; (* "o|AS<n>|" per slot *)
  mutable entries : entry Prefix.Map.t;
}

let create neighbors =
  let neighbors = Array.copy neighbors in
  Array.sort Asn.compare neighbors;
  for i = 1 to Array.length neighbors - 1 do
    if Asn.equal neighbors.(i - 1) neighbors.(i) then
      invalid_arg ("Rib.create: repeated " ^ Asn.to_string neighbors.(i))
  done;
  let labels tag = Array.map (fun n -> tag ^ Asn.to_string n ^ "|") neighbors in
  {
    neighbors;
    in_labels = labels "i|";
    out_labels = labels "o|";
    entries = Prefix.Map.empty;
  }

let neighbors t = t.neighbors

let slot t asn = Asn.find_sorted t.neighbors asn

let entry t prefix =
  match Prefix.Map.find_opt prefix t.entries with
  | Some e -> e
  | None ->
      let n = Array.length t.neighbors in
      let e =
        {
          prefix;
          best = None;
          adj_in = Array.make n None;
          adj_out = Array.make n None;
          dirty = false;
        }
      in
      t.entries <- Prefix.Map.add prefix e t.entries;
      e

(* Every route entering a RIB through these setters passes through the
   interner, so with interning enabled all stored routes are canonical
   representatives and downstream [Route.equal] calls settle on the [==]
   fast path. *)
let canon = Option.map Intern.route

let slot_exn t neighbor =
  let s = slot t neighbor in
  if s < 0 then invalid_arg ("Rib: not a neighbor: " ^ Asn.to_string neighbor);
  s

let set_in t ~neighbor prefix route =
  let s = slot_exn t neighbor in
  (entry t prefix).adj_in.(s) <- canon route

let set_out t ~neighbor prefix route =
  let s = slot_exn t neighbor in
  (entry t prefix).adj_out.(s) <- canon route

let set_best t prefix route = (entry t prefix).best <- canon route

let find t prefix = Prefix.Map.find_opt prefix t.entries

let get_slot table t ~neighbor prefix =
  match find t prefix with
  | None -> None
  | Some e ->
      let s = slot t neighbor in
      if s < 0 then None else (table e).(s)

let get_in = get_slot (fun e -> e.adj_in)
let get_out = get_slot (fun e -> e.adj_out)

let get_best t prefix = Option.bind (find t prefix) (fun e -> e.best)

let candidates t prefix =
  match find t prefix with
  | None -> []
  | Some e ->
      Array.fold_left
        (fun acc r -> match r with Some r -> r :: acc | None -> acc)
        [] e.adj_in

let prefixes t =
  Prefix.Map.fold
    (fun p e acc ->
      if Option.is_some e.best || Array.exists Option.is_some e.adj_in then
        p :: acc
      else acc)
    t.entries []
  |> List.rev

(* Canonical description of everything this RIB holds for one prefix,
   across all three tables.  Slots are ASN-sorted and [Intern.encode] is
   representation-independent, so the string is a pure function of RIB
   contents — [""] when the prefix is absent everywhere.  This is the unit
   the incremental RIB tracker ({!Rib_delta}) digests. *)
let prefix_entry t prefix =
  match find t prefix with
  | None -> ""
  | Some e ->
      let buf = Buffer.create 128 in
      (match e.best with
      | Some r ->
          Buffer.add_string buf "b|";
          Buffer.add_string buf (Intern.encode r);
          Buffer.add_char buf '\n'
      | None -> ());
      let add_table labels table =
        Array.iteri
          (fun s r ->
            match r with
            | Some r ->
                Buffer.add_string buf labels.(s);
                Buffer.add_string buf (Intern.encode r);
                Buffer.add_char buf '\n'
            | None -> ())
          table
      in
      add_table t.in_labels e.adj_in;
      add_table t.out_labels e.adj_out;
      Buffer.contents buf

let digest t =
  (* Canonical fingerprint of all three tables.  Slots and the entry map
     are visited in sorted order and [Intern.encode] is byte-identical to
     [Route.encode] in both interning modes, so the digest is a pure
     function of RIB contents — the differential-oracle suite compares it
     across representations. *)
  let buf = Buffer.create 1024 in
  let add_route tag r =
    Buffer.add_string buf tag;
    Buffer.add_string buf (Intern.encode r);
    Buffer.add_char buf '\n'
  in
  let add_table tag table =
    Array.iteri
      (fun s n ->
        Prefix.Map.iter
          (fun p e ->
            Option.iter
              (add_route
                 (Printf.sprintf "%s|%s|%s|" tag (Asn.to_string n)
                    (Prefix.to_string p)))
              (table e).(s))
          t.entries)
      t.neighbors
  in
  add_table "in" (fun e -> e.adj_in);
  Prefix.Map.iter
    (fun p e ->
      Option.iter
        (add_route (Printf.sprintf "loc|%s|" (Prefix.to_string p)))
        e.best)
    t.entries;
  add_table "out" (fun e -> e.adj_out);
  Pvr_crypto.Sha256.digest_hex (Buffer.contents buf)
