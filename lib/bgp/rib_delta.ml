module C = Pvr_crypto

(* Digest-level tracker of the whole world's RIB state, keyed by
   (AS, prefix).  The resident representation is one 32-byte entry digest
   per pair — never the entries themselves — so the tracker stays a small
   constant factor of the simulator's own tables while letting the engine
   maintain the global RIB digest in O(dirty pairs) per epoch instead of
   re-walking every RIB. *)

type t = {
  mutable per_as : string Prefix.Map.t Asn.Map.t;
  as_cache : (Asn.t, string) Hashtbl.t;
  mutable stale : Asn.Set.t;
  prefix_labels : (Prefix.t, string) Hashtbl.t;
      (* "p:<prefix>", formatted once per prefix: every stale AS hashes
         one per prefix it holds *)
}

let create () =
  {
    per_as = Asn.Map.empty;
    as_cache = Hashtbl.create 64;
    stale = Asn.Set.empty;
    prefix_labels = Hashtbl.create 64;
  }

let prefix_label t p =
  match Hashtbl.find_opt t.prefix_labels p with
  | Some l -> l
  | None ->
      let l = "p:" ^ Prefix.to_string p in
      Hashtbl.add t.prefix_labels p l;
      l

let update t ~asn ~prefix ~entry =
  let digest = if entry = "" then "" else C.Sha256.digest entry in
  let m =
    Option.value (Asn.Map.find_opt asn t.per_as) ~default:Prefix.Map.empty
  in
  let prev = Option.value (Prefix.Map.find_opt prefix m) ~default:"" in
  if String.equal prev digest then false
  else begin
    let m =
      if digest = "" then Prefix.Map.remove prefix m
      else Prefix.Map.add prefix digest m
    in
    if Prefix.Map.is_empty m then begin
      t.per_as <- Asn.Map.remove asn t.per_as;
      Hashtbl.remove t.as_cache asn
    end
    else t.per_as <- Asn.Map.add asn m t.per_as;
    t.stale <- Asn.Set.add asn t.stale;
    true
  end

let as_digest t asn m =
  match
    if Asn.Set.mem asn t.stale then None else Hashtbl.find_opt t.as_cache asn
  with
  | Some d -> d
  | None ->
      let parts =
        Prefix.Map.fold
          (fun p dg acc -> dg :: prefix_label t p :: acc)
          m []
      in
      let d = C.Sha256.digest_parts (List.rev parts) in
      Hashtbl.replace t.as_cache asn d;
      d

let digest t =
  let parts =
    Asn.Map.fold
      (fun asn m acc -> as_digest t asn m :: ("as:" ^ Asn.to_string asn) :: acc)
      t.per_as []
  in
  t.stale <- Asn.Set.empty;
  C.Sha256.digest_parts_hex (List.rev parts)
