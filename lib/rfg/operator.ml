module Bgp = Pvr_bgp
module Codec = Pvr_crypto.Codec

type t =
  | Exists
  | Min_path_length
  | Union
  | Best of Bgp.Decision.step list
  | Filter of Bgp.Policy.match_cond list
  | Not_through of Bgp.Asn.t
  | Has_community of Bgp.Route.community
  | Within_hops_of_min of int
  | Shorter_of
  | First_nonempty

let arity = function Shorter_of -> Some 2 | _ -> None

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
  | Union -> all
  | Best pipeline -> (
      match Bgp.Decision.best ~pipeline all with None -> [] | Some r -> [ r ])
  | Filter conds ->
      List.filter (fun r -> List.for_all (fun c -> Bgp.Policy.matches c r) conds) all
  | Not_through asn -> List.filter (fun r -> not (Bgp.Route.through asn r)) all
  | Has_community c -> List.filter (Bgp.Route.has_community c) all
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
  | First_nonempty -> (
      match List.find_opt (fun v -> v <> []) inputs with
      | Some v -> v
      | None -> [])

let name = function
  | Exists -> "exists"
  | Min_path_length -> "min"
  | Union -> "union"
  | Best _ -> "best"
  | Filter _ -> "filter"
  | Not_through _ -> "not-through"
  | Has_community _ -> "has-community"
  | Within_hops_of_min _ -> "within-hops-of-min"
  | Shorter_of -> "shorter-of"
  | First_nonempty -> "first-nonempty"

let encode_step (s : Bgp.Decision.step) =
  match s with
  | Bgp.Decision.Highest_local_pref -> "lp"
  | Bgp.Decision.Shortest_as_path -> "len"
  | Bgp.Decision.Lowest_origin -> "orig"
  | Bgp.Decision.Lowest_med -> "med"
  | Bgp.Decision.Lowest_neighbor -> "nbr"

let encode_cond (c : Bgp.Policy.match_cond) =
  match c with
  | Bgp.Policy.Match_prefix_exact p -> "pfx=" ^ Bgp.Prefix.to_string p
  | Bgp.Policy.Match_prefix_in p -> "pfx<" ^ Bgp.Prefix.to_string p
  | Bgp.Policy.Match_community (a, v) ->
      Printf.sprintf "comm=%d:%d" a v
  | Bgp.Policy.Match_as_in_path a -> "inpath=" ^ Bgp.Asn.to_string a
  | Bgp.Policy.Match_next_hop a -> "nh=" ^ Bgp.Asn.to_string a
  | Bgp.Policy.Match_path_length_le n -> "len<=" ^ string_of_int n
  | Bgp.Policy.Match_any -> "any"

let encode op =
  match op with
  | Exists | Min_path_length | Union | Shorter_of | First_nonempty ->
      Codec.encode_list [ name op ]
  | Best steps -> Codec.encode_list (name op :: List.map encode_step steps)
  | Filter conds -> Codec.encode_list (name op :: List.map encode_cond conds)
  | Not_through a -> Codec.encode_list [ name op; Bgp.Asn.to_string a ]
  | Has_community (a, v) ->
      Codec.encode_list [ name op; Printf.sprintf "%d:%d" a v ]
  | Within_hops_of_min n -> Codec.encode_list [ name op; string_of_int n ]

(* Decoders raise [Codec.Malformed]; [decode] catches it at its
   [Codec.decode_list] boundary. *)

let decode_step = function
  | "lp" -> Bgp.Decision.Highest_local_pref
  | "len" -> Bgp.Decision.Shortest_as_path
  | "orig" -> Bgp.Decision.Lowest_origin
  | "med" -> Bgp.Decision.Lowest_med
  | "nbr" -> Bgp.Decision.Lowest_neighbor
  | _ -> Codec.malformed "decision step"

let decode_int s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> Codec.malformed "integer"

(* The operator encoding reaches a verifier inside a prover's disclosed
   payload, so a negative AS number is malformed input, not a bug. *)
let decode_asn s =
  if String.length s > 2 && String.sub s 0 2 = "AS" then
    match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
    | Some n when n >= 0 -> Bgp.Asn.of_int n
    | _ -> Codec.malformed "AS number"
  else Codec.malformed "AS number"

let decode_community s =
  match String.split_on_char ':' s with
  | [ a; v ] -> begin
      match (int_of_string_opt a, int_of_string_opt v) with
      | Some a, Some v when a >= 0 && v >= 0 -> (a, v)
      | _ -> Codec.malformed "community"
    end
  | _ -> Codec.malformed "community"

let decode_prefix p =
  match Bgp.Prefix.of_string p with
  | p -> p
  | exception Invalid_argument _ -> Codec.malformed "prefix"

let decode_cond s =
  let param prefix_str =
    let n = String.length prefix_str in
    if String.length s > n && String.sub s 0 n = prefix_str then
      Some (String.sub s n (String.length s - n))
    else None
  in
  if s = "any" then Bgp.Policy.Match_any
  else
    match
      List.find_map
        (fun (tag, decode) -> Option.map decode (param tag))
        [
          ("pfx=", fun p -> Bgp.Policy.Match_prefix_exact (decode_prefix p));
          ("pfx<", fun p -> Bgp.Policy.Match_prefix_in (decode_prefix p));
          ("comm=", fun c -> Bgp.Policy.Match_community (decode_community c));
          ("inpath=", fun a -> Bgp.Policy.Match_as_in_path (decode_asn a));
          ("nh=", fun a -> Bgp.Policy.Match_next_hop (decode_asn a));
          ("len<=", fun n -> Bgp.Policy.Match_path_length_le (decode_int n));
        ]
    with
    | Some cond -> cond
    | None -> Codec.malformed "filter condition"

let decode s =
  Codec.decode_list s (function
    | [ "exists" ] -> Exists
    | [ "min" ] -> Min_path_length
    | [ "union" ] -> Union
    | [ "shorter-of" ] -> Shorter_of
    | [ "first-nonempty" ] -> First_nonempty
    | "best" :: steps -> Best (List.map decode_step steps)
    | "filter" :: conds -> Filter (List.map decode_cond conds)
    | [ "not-through"; a ] -> Not_through (decode_asn a)
    | [ "has-community"; c ] -> Has_community (decode_community c)
    | [ "within-hops-of-min"; n ] -> Within_hops_of_min (decode_int n)
    | _ -> Codec.malformed "operator")

let pp ppf op =
  match op with
  | Not_through a -> Format.fprintf ppf "not-through(%a)" Bgp.Asn.pp a
  | Has_community (a, v) -> Format.fprintf ppf "has-community(%d:%d)" a v
  | Within_hops_of_min n -> Format.fprintf ppf "within-%d-of-min" n
  | _ -> Format.pp_print_string ppf (name op)
