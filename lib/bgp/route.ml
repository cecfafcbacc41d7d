module BU = Pvr_crypto.Bytes_util
module Codec = Pvr_crypto.Codec

type origin = Igp | Egp | Incomplete

type community = int * int

type t = {
  prefix : Prefix.t;
  as_path : Asn.t list;
  next_hop : Asn.t;
  local_pref : int;
  med : int;
  origin : origin;
  communities : community list;
}

let default_local_pref = 100

let originate ~asn prefix =
  {
    prefix;
    as_path = [ asn ];
    next_hop = asn;
    local_pref = default_local_pref;
    med = 0;
    origin = Igp;
    communities = [];
  }

let path_length r = List.length r.as_path

(* No closure: the simulator asks this of every neighbor of every
   decision. *)
let through asn r =
  let rec go = function [] -> false | a :: p -> Asn.equal a asn || go p in
  go r.as_path

let has_loop asn r = through asn r

let prepend asn r =
  { r with as_path = asn :: r.as_path; next_hop = asn }

let with_local_pref lp r = { r with local_pref = lp }
let with_med med r = { r with med }

let add_community c r =
  if List.mem c r.communities then r
  else { r with communities = c :: r.communities }

let has_community c r = List.mem c r.communities

let strip_private_attrs r = { r with local_pref = default_local_pref }

let origin_code = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

let encode r =
  Codec.encode_list
    [
      Prefix.to_string r.prefix;
      Codec.encode_list
        (List.map (fun a -> BU.be32 (Asn.to_int a)) r.as_path);
      BU.be32 (Asn.to_int r.next_hop);
      BU.be32 r.local_pref;
      BU.be32 r.med;
      BU.be32 (origin_code r.origin);
      Codec.encode_list
        (List.map (fun (a, v) -> BU.be32 a ^ BU.be32 v) r.communities);
    ]

let pp ppf r =
  Format.fprintf ppf "%a via [%s]" Prefix.pp r.prefix
    (String.concat " " (List.map Asn.to_string r.as_path))

let to_string r = Format.asprintf "%a" pp r

(* Structural, allocation-free equality with physical fast paths: interned
   routes (see {!Intern}) share canonical representatives, so the [==]
   checks short-circuit the common case on the engine's hot diff path.
   Equivalent to the old [encode a = encode b] — the encoding is injective
   over exactly these fields — without building two encodings per call. *)

let rec equal_path p q =
  p == q
  ||
  match (p, q) with
  | [], [] -> true
  | a :: p', b :: q' -> Asn.equal a b && equal_path p' q'
  | _ -> false

let equal a b =
  a == b
  || Prefix.equal a.prefix b.prefix
     && equal_path a.as_path b.as_path
     && Asn.equal a.next_hop b.next_hop
     && a.local_pref = b.local_pref && a.med = b.med
     && origin_code a.origin = origin_code b.origin
     && List.equal
          (fun (xa, xv) (ya, yv) -> xa = ya && xv = yv)
          a.communities b.communities

let compare a b =
  if a == b then 0
  else
    let ( <?> ) c next = if c <> 0 then c else next () in
    Prefix.compare a.prefix b.prefix <?> fun () ->
    List.compare Asn.compare a.as_path b.as_path <?> fun () ->
    Asn.compare a.next_hop b.next_hop <?> fun () ->
    Int.compare a.local_pref b.local_pref <?> fun () ->
    Int.compare a.med b.med <?> fun () ->
    Int.compare (origin_code a.origin) (origin_code b.origin) <?> fun () ->
    List.compare
      (fun (xa, xv) (ya, yv) ->
        Int.compare xa ya <?> fun () -> Int.compare xv yv)
      a.communities b.communities
