let digits = "0123456789abcdef"

let encode s =
  String.init (2 * String.length s) (fun i ->
      let b = Char.code s.[i / 2] in
      digits.[if i mod 2 = 0 then b lsr 4 else b land 0xf])

let nibble c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hex.decode: not a hex digit"

let decode s =
  if String.length s mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  String.init (String.length s / 2) (fun i ->
      Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
