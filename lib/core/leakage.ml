module Bgp = Pvr_bgp

type fact =
  | Knows_route of { provider : Bgp.Asn.t; route : Bgp.Route.t }
  | Knows_min_length of int
  | Knows_bit of { index : int; value : bool }
  | Knows_route_count_positive

let pp_fact ppf = function
  | Knows_route { provider; route } ->
      Format.fprintf ppf "route of %a: %a" Bgp.Asn.pp provider Bgp.Route.pp
        route
  | Knows_min_length l -> Format.fprintf ppf "min input length = %d" l
  | Knows_bit { index; value } ->
      Format.fprintf ppf "bit b_%d = %b" index value
  | Knows_route_count_positive -> Format.fprintf ppf "at least one input"

type view = fact list

let plain_bgp_beneficiary ~exported =
  match exported with
  | None -> []
  | Some r ->
      (* The route B receives is itself an input of A (pre-prepend), and
         the kept promise implies it is the minimum. *)
      [
        Knows_route
          { provider = r.Bgp.Route.next_hop; route = r };
        Knows_min_length (Bgp.Route.path_length r);
        Knows_route_count_positive;
      ]

let plain_bgp_provider ~me ~my_route =
  [
    Knows_route { provider = me; route = my_route };
    Knows_route_count_positive;
  ]

let pvr_min_beneficiary ~k ~openings ~exported =
  ignore k;
  plain_bgp_beneficiary ~exported
  @ List.map (fun (index, value) -> Knows_bit { index; value }) openings

let pvr_min_provider ~me ~my_route ~revealed_bit =
  plain_bgp_provider ~me ~my_route
  @
  match revealed_bit with
  | Some (index, value) -> [ Knows_bit { index; value } ]
  | None -> []

let netreview_neighbor ~inputs =
  let routes =
    List.map (fun (provider, route) -> Knows_route { provider; route }) inputs
  in
  let min_len =
    List.fold_left
      (fun acc (_, r) -> min acc (Bgp.Route.path_length r))
      max_int inputs
  in
  if inputs = [] then []
  else routes @ [ Knows_min_length min_len; Knows_route_count_positive ]

(* Closure rules:
   - any baseline fact is derivable;
   - Knows_min_length L ⟹ Knows_bit(i, L <= i) for every i;
   - Knows_route (own or learned) of length L ⟹ Knows_bit(i, true) for
     i >= L (some input is at most L hops) and Knows_route_count_positive;
   - Knows_min_length ⟹ Knows_route_count_positive. *)
let derivable ~baseline fact =
  List.mem fact baseline
  ||
  let known_min =
    List.find_map
      (function Knows_min_length l -> Some l | _ -> None)
      baseline
  in
  let known_route_lengths =
    List.filter_map
      (function
        | Knows_route { route; _ } -> Some (Bgp.Route.path_length route)
        | _ -> None)
      baseline
  in
  match fact with
  | Knows_bit { index; value } -> begin
      match known_min with
      | Some l -> value = (l <= index)
      | None ->
          (* A set bit follows from any known route short enough. *)
          value && List.exists (fun l -> l <= index) known_route_lengths
    end
  | Knows_route_count_positive ->
      known_min <> None || known_route_lengths <> []
  | Knows_min_length _ | Knows_route _ -> false

let excess ~baseline ~observed =
  List.filter (fun f -> not (derivable ~baseline f)) observed

let excess_count ~baseline ~observed =
  List.length (excess ~baseline ~observed)

(* ---- quantitative meter ---------------------------------------------------

   A coarse, documented bit-accounting convention (the REV-style
   "information bound"): what matters is not the absolute numbers but that
   they are (a) monotone in how much a transcript reveals and (b) identical
   across runs with the same seed, so matrix rows can be diffed.

   - a threshold bit is 1 bit;
   - "some input exists" is 1 bit;
   - a minimum length is an integer in 1..32 (default_max_path_len): 5 bits;
   - a full route reveals its AS path: 32 bits (an ASN) per hop. *)

let fact_bits = function
  | Knows_bit _ -> 1
  | Knows_route_count_positive -> 1
  | Knows_min_length _ -> 5
  | Knows_route { route; _ } -> 32 * Bgp.Route.path_length route

let dedup v =
  List.rev (List.fold_left (fun a f -> if List.mem f a then a else f :: a) [] v)

let view_bits view = List.fold_left (fun n f -> n + fact_bits f) 0 (dedup view)

let pooled views = dedup (List.concat views)

(* α adapter: which facts the access-control map explicitly authorizes a
   viewer to learn beyond plain BGP.  The Figure-1 vertex naming applies:
   threshold bits and the input count belong to the public ["op:min"]
   vertex; a minimum length is the promise output (visible to whoever may
   see its [output_var]); a learned route r of provider N_i is N_i's input
   variable. *)
let alpha_authorizes alpha ~viewer fact =
  let ok v = Access_control.permits_vertex alpha ~viewer v in
  match fact with
  | Knows_bit _ | Knows_route_count_positive -> ok "op:min"
  | Knows_min_length _ -> ok (Pvr_rfg.Promise.output_var viewer)
  | Knows_route { provider; _ } -> ok (Pvr_rfg.Promise.input_var provider)

type audit = {
  au_viewer : string;
  au_baseline_bits : int;
  au_observed_bits : int;
  au_excess : fact list;
  au_excess_bits : int;
  au_unauthorized_bits : int;
}

let obs_audits = Pvr_obs.counter "leakage.audits"
let obs_bits_disclosed = Pvr_obs.counter "leakage.bits.disclosed"
let obs_bits_excess = Pvr_obs.counter "leakage.bits.excess"
let obs_refusals = Pvr_obs.counter "leakage.refusals"

let audit ~viewer ?(authorized = fun _ -> false) ~baseline ~observed () =
  Pvr_obs.incr obs_audits;
  let observed = dedup observed in
  let ex = excess ~baseline ~observed in
  let unauthorized = List.filter (fun f -> not (authorized f)) ex in
  let bits = List.fold_left (fun n f -> n + fact_bits f) 0 in
  let au_excess_bits = bits ex in
  Pvr_obs.add obs_bits_excess au_excess_bits;
  {
    au_viewer = viewer;
    au_baseline_bits = view_bits baseline;
    au_observed_bits = bits observed;
    au_excess = ex;
    au_excess_bits;
    au_unauthorized_bits = bits unauthorized;
  }

let validate_privacy_claims audits =
  let errors =
    List.filter_map
      (fun a ->
        if a.au_unauthorized_bits > 0 then
          Some
            (Printf.sprintf
               "%s learns %d unauthorized bit(s) beyond plain BGP: %s"
               a.au_viewer a.au_unauthorized_bits
               (String.concat "; "
                  (List.map (Format.asprintf "%a" pp_fact) a.au_excess)))
        else None)
      audits
  in
  if errors = [] then Ok () else Error errors

(* ---- per-round disclosure ledger ------------------------------------------

   Threaded through the judge and the runner so every disclosed bit
   of a round is accounted per viewer.  Hiding commitments disclose
   nothing, so they are not recorded. *)

let court = Bgp.Asn.of_int 0

module Ledger = struct
  type ledger = {
    facts : (Bgp.Asn.t, fact list) Hashtbl.t; (* reverse arrival order *)
    mutable refused : (Bgp.Asn.t * int) list; (* per-viewer refusal tally *)
  }

  let create () = { facts = Hashtbl.create 8; refused = [] }
  let facts l v = Option.value (Hashtbl.find_opt l.facts v) ~default:[]

  let record l ~viewer fact =
    let known = facts l viewer in
    if not (List.mem fact known) then begin
      Pvr_obs.add obs_bits_disclosed (fact_bits fact);
      Hashtbl.replace l.facts viewer (fact :: known)
    end

  (* α said no: the item was withheld, but the *attempt* is part of the
     audit trail — refusals are how the disclosure ledger proves the
     access-control map was actually enforced, not just declared. *)
  let record_refusal l ~viewer =
    Pvr_obs.incr obs_refusals;
    let n = match List.assoc_opt viewer l.refused with
      | Some n -> n
      | None -> 0
    in
    l.refused <- (viewer, n + 1) :: List.remove_assoc viewer l.refused

  let refusal_count l =
    List.fold_left (fun acc (_, n) -> acc + n) 0 l.refused

  let refusals l =
    List.sort (fun (a, _) (b, _) -> Bgp.Asn.compare a b) l.refused

  let view l ~viewer = List.rev (facts l viewer)

  let viewers l =
    List.sort Bgp.Asn.compare (Hashtbl.fold (fun v _ acc -> v :: acc) l.facts [])

  let bits l =
    Hashtbl.fold
      (fun _ fs n -> List.fold_left (fun n f -> n + fact_bits f) n fs)
      l.facts 0
end
