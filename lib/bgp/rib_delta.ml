module C = Pvr_crypto
module Codec = Pvr_crypto.Codec

(* Digest-level tracker of the whole world's RIB state, keyed by
   (AS, prefix).  The resident representation is one 32-byte entry digest
   per pair — never the entries themselves — so the tracker stays a small
   constant factor of the simulator's own tables while letting the engine
   maintain the global RIB digest in O(dirty pairs) per epoch instead of
   re-walking every RIB.

   Serialization is two-level, mirroring the store's snapshot/journal
   split: [encode_full] is the complete pair→digest map (written on the
   snapshot cadence), [encode_delta] is just the pairs that changed since
   the last emission.  A decoder replaying full + deltas must land on the
   same {!digest} as the live tracker — the differential oracle in the
   test suite pins exactly that. *)

type change = { rd_asn : Asn.t; rd_prefix : Prefix.t; rd_digest : string }

type t = {
  mutable per_as : string Prefix.Map.t Asn.Map.t;
  as_cache : (Asn.t, string) Hashtbl.t;
  mutable stale : Asn.Set.t;
  mutable pending : change list;
}

let create () =
  {
    per_as = Asn.Map.empty;
    as_cache = Hashtbl.create 64;
    stale = Asn.Set.empty;
    pending = [];
  }

let pairs t =
  Asn.Map.fold (fun _ m acc -> acc + Prefix.Map.cardinal m) t.per_as 0

(* Install a pair digest ([""] = pair gone) without logging a change —
   the shared core of [update] (which logs) and [apply] (which replays). *)
let set_digest t ~asn ~prefix digest =
  let m =
    Option.value (Asn.Map.find_opt asn t.per_as) ~default:Prefix.Map.empty
  in
  let m =
    if digest = "" then Prefix.Map.remove prefix m
    else Prefix.Map.add prefix digest m
  in
  if Prefix.Map.is_empty m then begin
    t.per_as <- Asn.Map.remove asn t.per_as;
    Hashtbl.remove t.as_cache asn
  end
  else t.per_as <- Asn.Map.add asn m t.per_as;
  t.stale <- Asn.Set.add asn t.stale

let update t ~asn ~prefix ~entry =
  let digest = if entry = "" then "" else C.Sha256.digest entry in
  let prev =
    match Asn.Map.find_opt asn t.per_as with
    | None -> ""
    | Some m -> Option.value (Prefix.Map.find_opt prefix m) ~default:""
  in
  if String.equal prev digest then false
  else begin
    set_digest t ~asn ~prefix digest;
    t.pending <- { rd_asn = asn; rd_prefix = prefix; rd_digest = digest } :: t.pending;
    true
  end

let drain_changes t =
  let cs = List.rev t.pending in
  t.pending <- [];
  cs

let as_digest t asn m =
  match
    if Asn.Set.mem asn t.stale then None else Hashtbl.find_opt t.as_cache asn
  with
  | Some d -> d
  | None ->
      let parts =
        Prefix.Map.fold
          (fun p dg acc -> dg :: ("p:" ^ Prefix.to_string p) :: acc)
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

(* [Prefix.make] validates its range with [Invalid_argument]; decoders
   must turn that into a clean [Malformed] rejection instead. *)
let decode_prefix ~addr ~len =
  if len < 0 || len > 32 then raise (Codec.Malformed "prefix length out of range");
  Prefix.make ~addr ~len

let encode_full t =
  let buf = Buffer.create 4096 in
  Codec.u32 buf (Asn.Map.cardinal t.per_as);
  Asn.Map.iter
    (fun asn m ->
      Codec.u32 buf (Asn.to_int asn);
      Codec.u32 buf (Prefix.Map.cardinal m);
      Prefix.Map.iter
        (fun p dg ->
          Codec.u32 buf p.Prefix.addr;
          Codec.u32 buf p.Prefix.len;
          Codec.str buf dg)
        m)
    t.per_as;
  Buffer.contents buf

let decode_full payload =
  Codec.decode payload (fun r ->
      let t = create () in
      let n_as = Codec.get_u32 r in
      for _ = 1 to n_as do
        let asn = Asn.of_int (Codec.get_u32 r) in
        let n_p = Codec.get_u32 r in
        for _ = 1 to n_p do
          let addr = Codec.get_u32 r in
          let len = Codec.get_u32 r in
          let dg = Codec.get_str r in
          if dg = "" then raise (Codec.Malformed "empty pair digest");
          set_digest t ~asn ~prefix:(decode_prefix ~addr ~len) dg
        done
      done;
      t)

let encode_delta changes =
  let buf = Buffer.create 1024 in
  Codec.u32 buf (List.length changes);
  List.iter
    (fun c ->
      Codec.u32 buf (Asn.to_int c.rd_asn);
      Codec.u32 buf c.rd_prefix.Prefix.addr;
      Codec.u32 buf c.rd_prefix.Prefix.len;
      Codec.str buf c.rd_digest)
    changes;
  Buffer.contents buf

let decode_delta payload =
  Codec.decode payload (fun r ->
      let n = Codec.get_u32 r in
      List.init n (fun _ ->
          let asn = Asn.of_int (Codec.get_u32 r) in
          let addr = Codec.get_u32 r in
          let len = Codec.get_u32 r in
          let rd_digest = Codec.get_str r in
          { rd_asn = asn; rd_prefix = decode_prefix ~addr ~len; rd_digest }))

let apply t changes =
  List.iter (fun c -> set_digest t ~asn:c.rd_asn ~prefix:c.rd_prefix c.rd_digest) changes
