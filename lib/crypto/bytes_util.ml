let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Bytes_util.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let equal_ct a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let be32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (24 - 8 * i)) land 0xff))

let le32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let read_be32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let read_le32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let concat parts = String.concat "" parts
