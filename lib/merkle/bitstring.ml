(* Representation: a string of '0'/'1' characters.  Slow but transparent;
   vertex paths are at most 128 bits so this is never a bottleneck. *)

type t = string

let empty = ""
let length = String.length

let get t i =
  if i < 0 || i >= String.length t then invalid_arg "Bitstring.get";
  t.[i] = '1'

let append_bit t b = t ^ if b then "1" else "0"

let of_bools bits =
  String.concat "" (List.map (fun b -> if b then "1" else "0") bits)

let of_int_bits v ~len =
  if len < 0 || len > 32 then invalid_arg "Bitstring.of_int_bits";
  String.init len (fun i ->
      if (v lsr (31 - i)) land 1 = 1 then '1' else '0')

let of_string s =
  String.iter
    (fun c ->
      if c <> '0' && c <> '1' then
        invalid_arg "Bitstring.of_string: expected only '0'/'1'")
    s;
  s

let to_string t = t

let id_width = 128

let of_id id =
  let h = Pvr_crypto.Sha256.digest ("vertex-path:" ^ id) in
  let buf = Bytes.create id_width in
  for i = 0 to id_width - 1 do
    let byte = Char.code h.[i / 8] in
    let bit = (byte lsr (7 - (i mod 8))) land 1 in
    Bytes.set buf i (if bit = 1 then '1' else '0')
  done;
  Bytes.unsafe_to_string buf

let is_prefix a b =
  String.length a <= String.length b
  && String.sub b 0 (String.length a) = a

let prefix_free paths =
  let rec check = function
    | [] -> true
    | p :: rest ->
        List.for_all (fun q -> not (is_prefix p q) && not (is_prefix q p)) rest
        && check rest
  in
  check paths

let equal = String.equal
