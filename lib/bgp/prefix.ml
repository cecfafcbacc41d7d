type t = { addr : int; len : int }

let mask len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let make ~addr ~len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  { addr = addr land mask len; len }

let of_string s =
  match String.index_opt s '/' with
  | None -> invalid_arg "Prefix.of_string: missing '/'"
  | Some slash ->
      let ip = String.sub s 0 slash in
      let len =
        match int_of_string_opt (String.sub s (slash + 1) (String.length s - slash - 1)) with
        | Some l -> l
        | None -> invalid_arg "Prefix.of_string: bad length"
      in
      let octets = String.split_on_char '.' ip in
      let addr =
        match List.map int_of_string_opt octets with
        | [ Some a; Some b; Some c; Some d ]
          when List.for_all (fun x -> x >= 0 && x <= 255) [ a; b; c; d ] ->
            (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
        | _ -> invalid_arg "Prefix.of_string: bad IPv4 address"
      in
      make ~addr ~len

(* Decimal width of an octet or a length: both are below 1000. *)
let digits n = if n < 10 then 1 else if n < 100 then 2 else 3

let write_digits buf off n =
  let d = digits n in
  let n = ref n in
  for i = off + d - 1 downto off do
    Bytes.set buf i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  off + d

let text_length { addr; len } =
  digits (addr lsr 24) + digits (addr lsr 16 land 0xff)
  + digits (addr lsr 8 land 0xff) + digits (addr land 0xff) + digits len + 4

(* The octet of [addr] at [shift], then [sep]. *)
let write_octet buf off addr shift sep =
  let off = write_digits buf off (addr lsr shift land 0xff) in
  Bytes.set buf off sep;
  off + 1

let write_text { addr; len } buf off =
  let off = write_octet buf off addr 24 '.' in
  let off = write_octet buf off addr 16 '.' in
  let off = write_octet buf off addr 8 '.' in
  let off = write_octet buf off addr 0 '/' in
  write_digits buf off len

let to_string p =
  let buf = Bytes.create (text_length p) in
  ignore (write_text p buf 0 : int);
  Bytes.unsafe_to_string buf

let pp ppf p = Format.pp_print_string ppf (to_string p)
let equal a b = a.addr = b.addr && a.len = b.len

let compare a b =
  match Int.compare a.addr b.addr with 0 -> Int.compare a.len b.len | c -> c

let contains outer inner =
  outer.len <= inner.len && inner.addr land mask outer.len = outer.addr

let random rng =
  let len = 8 + Pvr_crypto.Drbg.uniform_int rng 17 in
  let addr = Pvr_crypto.Drbg.uniform_int rng 0x1000000 lsl 8 in
  make ~addr ~len

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
