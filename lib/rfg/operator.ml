module Bgp = Pvr_bgp
module Codec = Pvr_crypto.Codec

type t =
  | Exists
  | Min_path_length
  | Within_hops_of_min of int
  | Shorter_of

let arity = function
  | Shorter_of -> Some 2
  | Exists | Min_path_length | Within_hops_of_min _ -> None

let min_length routes =
  List.fold_left (fun acc r -> min acc (Bgp.Route.path_length r)) max_int routes

let apply op inputs =
  (match arity op with
  | Some n when List.length inputs <> n ->
      invalid_arg ("Operator.apply: " ^ "wrong arity")
  | _ -> ());
  let all = List.concat inputs in
  match op with
  | Exists -> ( match all with [] -> [] | r :: _ -> [ r ])
  | Min_path_length ->
      if all = [] then []
      else begin
        let m = min_length all in
        List.filter (fun r -> Bgp.Route.path_length r = m) all
      end
  | Within_hops_of_min n ->
      if all = [] then []
      else begin
        let m = min_length all in
        List.filter (fun r -> Bgp.Route.path_length r <= m + n) all
      end
  | Shorter_of -> begin
      let shortest routes =
        let m = min_length routes in
        List.find_opt (fun r -> Bgp.Route.path_length r = m) routes
      in
      match List.map shortest inputs with
      | [ None; None ] -> []
      | [ Some r; None ] | [ None; Some r ] -> [ r ]
      | [ Some r1; Some r2 ] ->
          if Bgp.Route.path_length r1 < Bgp.Route.path_length r2 then [ r1 ]
          else [ r2 ]
      | _ -> invalid_arg "Operator.apply: Shorter_of is binary"
    end

let name = function
  | Exists -> "exists"
  | Min_path_length -> "min"
  | Within_hops_of_min _ -> "within-hops-of-min"
  | Shorter_of -> "shorter-of"

let encode op =
  match op with
  | Exists | Min_path_length | Shorter_of -> Codec.encode_list [ name op ]
  | Within_hops_of_min n -> Codec.encode_list [ name op; string_of_int n ]

(* [decode_int] raises [Codec.Malformed]; [decode] catches it at its
   [Codec.decode_list] boundary. *)
let decode_int s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> Codec.malformed "integer"

let decode s =
  Codec.decode_list s (function
    | [ "exists" ] -> Exists
    | [ "min" ] -> Min_path_length
    | [ "shorter-of" ] -> Shorter_of
    | [ "within-hops-of-min"; n ] -> Within_hops_of_min (decode_int n)
    | _ -> Codec.malformed "operator")

let pp ppf op =
  match op with
  | Within_hops_of_min n -> Format.fprintf ppf "within-%d-of-min" n
  | Exists | Min_path_length | Shorter_of ->
      Format.pp_print_string ppf (name op)
