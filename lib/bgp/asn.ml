type t = int

let of_int n =
  if n < 0 then invalid_arg "Asn.of_int: negative AS number";
  n

let to_int n = n
let equal = Int.equal
let compare = Int.compare
let hash n = n
let to_string n = "AS" ^ string_of_int n
let pp ppf n = Format.pp_print_string ppf (to_string n)

let find_sorted a x =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = compare a.(mid) x in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
