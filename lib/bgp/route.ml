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

let add_community c r =
  if List.mem c r.communities then r
  else { r with communities = c :: r.communities }

let has_community c r = List.mem c r.communities

let strip_private_attrs r = { r with local_pref = default_local_pref }

let origin_code = function Igp -> 0 | Egp -> 1 | Incomplete -> 2

(* ---- the injective encoding ------------------------------------------------

   The bytes of the seven-item list that route.mli describes, laid down in
   place by [write_at]: no item string is built.  The outer count and
   frames, the path list's count, the four attribute words and the
   communities list's count come to 56 bytes; each hop adds a framed word
   (8) and each community a framed pair (12). *)

let encoded_length r =
  56 + Prefix.text_length r.prefix
  + (8 * List.length r.as_path)
  + (12 * List.length r.communities)

let set32 buf off v =
  Bytes.set_int32_be buf off (Int32.of_int v);
  off + 4

(* A length-framed 4-byte word. *)
let word buf off v = set32 buf (set32 buf off 4) v

let rec write_path buf off = function
  | [] -> off
  | a :: p -> write_path buf (word buf off (Asn.to_int a)) p

let rec write_communities buf off = function
  | [] -> off
  | (a, v) :: cs ->
      write_communities buf (set32 buf (set32 buf (set32 buf off 8) a) v) cs

let write_at buf off r =
  let off = set32 buf off 7 in
  let off = set32 buf off (Prefix.text_length r.prefix) in
  let off = Prefix.write_text r.prefix buf off in
  let hops = List.length r.as_path in
  let off = set32 buf (set32 buf off (4 + (8 * hops))) hops in
  let off = write_path buf off r.as_path in
  let off = word buf off (Asn.to_int r.next_hop) in
  let off = word buf off r.local_pref in
  let off = word buf off r.med in
  let off = word buf off (origin_code r.origin) in
  let n = List.length r.communities in
  let off = set32 buf (set32 buf off (4 + (12 * n))) n in
  write_communities buf off r.communities

let write r buf off =
  if off < 0 || off > Bytes.length buf - encoded_length r then
    invalid_arg "Route.write";
  write_at buf off r

let encode r =
  let buf = Bytes.create (encoded_length r) in
  ignore (write_at buf 0 r : int);
  Bytes.unsafe_to_string buf

(* One scratch buffer per domain, grown to the longest route absorbed. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

let absorb ctx r =
  let len = encoded_length r in
  let buf = Domain.DLS.get scratch in
  if Bytes.length !buf < len then buf := Bytes.create (2 * len);
  ignore (write_at !buf 0 r : int);
  Pvr_crypto.Sha256.update_sub ctx (Bytes.unsafe_to_string !buf) 0 len

let pp ppf r =
  Format.fprintf ppf "%a via [%s]" Prefix.pp r.prefix
    (String.concat " " (List.map Asn.to_string r.as_path))

let to_string r = Format.asprintf "%a" pp r

(* Structural, allocation-free equality.  The [==] checks settle a route
   compared with itself, as when the simulator offers every neighbour the
   one announcement it built.  Equivalent to [encode a = encode b]: the
   encoding is injective over exactly these fields. *)

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
