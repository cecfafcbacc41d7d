module Bgp = Pvr_bgp
module Rfg = Pvr_rfg.Rfg
module Promise = Pvr_rfg.Promise

type component = Preds | Succs | Payload

module Key = struct
  type t = Bgp.Asn.t option * string * component
  (* viewer (None = everyone), vertex, component *)

  let compare = Stdlib.compare
end

module KSet = Set.Make (Key)

type t = KSet.t

let deny_all = KSet.empty

let components = [ Preds; Succs; Payload ]

let allow_component t ~viewer vertex comp =
  KSet.add (Some viewer, vertex, comp) t

let allow t ~viewer vertex =
  List.fold_left (fun t c -> allow_component t ~viewer vertex c) t components

(* Every network gets all components of the vertex (the paper's
   "α(n, min) = TRUE for all networks n"). *)
let allow_everyone t vertex =
  List.fold_left (fun t c -> KSet.add (None, vertex, c) t) t components

let permits t ~viewer vertex comp =
  KSet.mem (Some viewer, vertex, comp) t || KSet.mem (None, vertex, comp) t

let permits_vertex t ~viewer vertex =
  List.for_all (fun c -> permits t ~viewer vertex c) components

let figure1 ~beneficiary ~providers =
  let t = deny_all in
  let t =
    List.fold_left
      (fun t n -> allow t ~viewer:n (Promise.input_var n))
      t providers
  in
  let t = allow t ~viewer:beneficiary (Promise.output_var beneficiary) in
  allow_everyone t "op:min"

let for_promise promise ~beneficiary ~neighbors =
  let involved, ops =
    match promise with
    | Promise.Shortest_route -> (neighbors, [ "op:min" ])
    | Promise.Shortest_from subset -> (subset, [ "op:min" ])
    | Promise.Within_hops _ -> (neighbors, [ "op:within" ])
    | Promise.No_longer_than_others -> (neighbors, [ "op:min" ])
    | Promise.Export_if_any subset -> (subset, [ "op:exists" ])
    | Promise.Prefer_unless_shorter { fallback; override } ->
        (override :: fallback, [ "op:min"; "op:choose"; "v:fallback-min" ])
  in
  let t = deny_all in
  let t =
    List.fold_left
      (fun t n -> allow t ~viewer:n (Promise.input_var n))
      t involved
  in
  let t = allow t ~viewer:beneficiary (Promise.output_var beneficiary) in
  List.fold_left allow_everyone t ops
