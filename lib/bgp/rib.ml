module H = Pvr_crypto.Sha256

type entry = {
  prefix : Prefix.t;
  label : string;
  mutable best : Route.t option;
  adj_in : Route.t option array;
  adj_out : Route.t option array;
  mutable dirty : bool;
  mutable digest : string;
}

type t = {
  neighbors : Asn.t array; (* ascending: index = slot *)
  in_labels : string array; (* "i|AS<n>|" per slot, hashed before a route *)
  out_labels : string array; (* "o|AS<n>|" per slot *)
  mutable entries : entry Prefix.Map.t;
  mutable stale : bool; (* some entry is dirty, so [folded] is out of date *)
  mutable folded : string; (* the AS digest as of the last [digest] *)
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
    stale = false;
    folded = "";
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
          label = "p:" ^ Prefix.to_string prefix;
          best = None;
          adj_in = Array.make n None;
          adj_out = Array.make n None;
          dirty = false;
          digest = "";
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

(* A dirty entry implies a stale RIB: [digest] clears both together. *)
let mark t e =
  if not e.dirty then begin
    e.dirty <- true;
    t.stale <- true
  end

let set_in t ~neighbor prefix route =
  let s = slot_exn t neighbor in
  let e = entry t prefix in
  e.adj_in.(s) <- canon route;
  mark t e

let set_out t ~neighbor prefix route =
  let s = slot_exn t neighbor in
  let e = entry t prefix in
  e.adj_out.(s) <- canon route;
  mark t e

let set_best t prefix route =
  let e = entry t prefix in
  e.best <- canon route;
  mark t e

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

(* ---- digest ----------------------------------------------------------------

   An entry's digest is SHA-256 over ["b|"] and its best route, then a
   ["i|AS<n>|"] and ["o|AS<n>|"] label and route per filled slot, each
   route as its [Intern.encode] bytes (identical to [Route.encode] in both
   interning modes) followed by a newline; [""] when the entry holds
   nothing.  The AS digest length-frames ["p:<prefix>"] and the entry
   digest of every non-empty entry in prefix order, which is the order of
   [entries]. *)

let c_rehashed = Pvr_obs.counter "bgp.rib.rehashed"

(* Two contexts per domain: the AS fold stays open while entries hash. *)
let scratch = Domain.DLS.new_key (fun () -> (H.init (), H.init ()))

let add_route ctx label r =
  H.update ctx label;
  H.update ctx (Intern.encode r);
  H.update ctx "\n"

let add_slots ctx labels table =
  for s = 0 to Array.length table - 1 do
    match table.(s) with Some r -> add_route ctx labels.(s) r | None -> ()
  done

let entry_digest ctx t e =
  if
    Option.is_none e.best
    && Array.for_all Option.is_none e.adj_in
    && Array.for_all Option.is_none e.adj_out
  then ""
  else begin
    H.reset ctx;
    (match e.best with Some r -> add_route ctx "b|" r | None -> ());
    add_slots ctx t.in_labels e.adj_in;
    add_slots ctx t.out_labels e.adj_out;
    H.finalize ctx
  end

let fold ctx t digest_of =
  H.reset ctx;
  let any =
    Prefix.Map.fold
      (fun _ e any ->
        match digest_of e with
        | "" -> any
        | d ->
            H.update_part ctx e.label;
            H.update_part ctx d;
            true)
      t.entries false
  in
  if any then H.finalize ctx else ""

let digest t =
  if t.stale then begin
    let as_ctx, entry_ctx = Domain.DLS.get scratch in
    let rehashed = ref 0 in
    t.folded <-
      fold as_ctx t (fun e ->
          if e.dirty then begin
            e.digest <- entry_digest entry_ctx t e;
            e.dirty <- false;
            incr rehashed
          end;
          e.digest);
    t.stale <- false;
    Pvr_obs.add c_rehashed !rehashed
  end;
  t.folded

let digest_full t = fold (H.init ()) t (entry_digest (H.init ()) t)
