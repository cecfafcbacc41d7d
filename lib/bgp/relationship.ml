type t = Customer | Peer | Provider

let invert = function
  | Customer -> Provider
  | Peer -> Peer
  | Provider -> Customer

let to_string = function
  | Customer -> "customer"
  | Peer -> "peer"
  | Provider -> "provider"

let pp ppf t = Format.pp_print_string ppf (to_string t)
let equal a b = a = b

let export_allowed ~learned_from ~to_ =
  match (learned_from, to_) with
  | Customer, _ -> true
  | (Peer | Provider), Customer -> true
  | (Peer | Provider), (Peer | Provider) -> false
