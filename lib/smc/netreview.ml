module Bgp = Pvr_bgp

type disclosure = {
  inputs : (Bgp.Asn.t * Bgp.Route.t) list;
  chosen : Bgp.Route.t option;
}

let disclose ~inputs ~chosen = { inputs; chosen }

let verify_shortest d =
  match (d.chosen, d.inputs) with
  | None, [] -> true
  | None, _ -> false
  | Some _, [] -> false
  | Some r, _ ->
      let min_len =
        List.fold_left
          (fun acc (_, r) -> min acc (Bgp.Route.path_length r))
          max_int d.inputs
      in
      Bgp.Route.path_length r = min_len
      && List.exists (fun (_, r') -> Bgp.Route.equal r r') d.inputs

let revealed_paths d = List.map (fun (_, r) -> r.Bgp.Route.as_path) d.inputs

let disclosure_bytes d =
  List.fold_left
    (fun acc (_, r) -> acc + Bgp.Route.encoded_length r + 4)
    (match d.chosen with Some r -> Bgp.Route.encoded_length r | None -> 0)
    d.inputs
