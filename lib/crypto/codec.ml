exception Malformed of string

let malformed what = raise (Malformed what)

let u32 buf n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
  Buffer.add_string buf (Bytes_util.be32 n)

let str buf s =
  u32 buf (String.length s);
  Buffer.add_string buf s

let bool_ buf b = Buffer.add_char buf (if b then '\x01' else '\x00')

let length_prefixed s = Bytes_util.be32 (String.length s) ^ s

let encode_list items =
  Bytes_util.concat
    (Bytes_util.be32 (List.length items) :: List.map length_prefixed items)

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let remaining r = String.length r.src - r.pos

let need r n what =
  if remaining r < n then
    malformed (Printf.sprintf "truncated %s at offset %d" what r.pos)

let get_u32 r =
  need r 4 "u32";
  let v = Bytes_util.read_be32 r.src r.pos in
  r.pos <- r.pos + 4;
  v

let get_str r =
  let n = get_u32 r in
  need r n "string";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_bool r =
  need r 1 "bool";
  let c = r.src.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\x00' -> false
  | '\x01' -> true
  | _ -> malformed "bad bool"

(* Every item takes at least its 4-byte length, so a count above a quarter
   of the remaining bytes is rejected before any item is read. *)
let get_list r =
  let count = get_u32 r in
  if count > remaining r / 4 then malformed "list count exceeds payload";
  List.init count (fun _ -> get_str r)

let at_end r = remaining r = 0

let decode payload parse =
  let r = reader payload in
  match parse r with
  | v -> if at_end r then Ok v else Error "trailing bytes after record"
  | exception Malformed m -> Error m

let decode_list s f = Result.to_option (decode s (fun r -> f (get_list r)))

let list s =
  let r = reader s in
  let items = get_list r in
  if not (at_end r) then malformed "trailing bytes after list";
  items

let u32_item s =
  if String.length s <> 4 then malformed "u32 item";
  Bytes_util.read_be32 s 0
