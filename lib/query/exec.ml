module Bgp = Pvr_bgp
module J = Pvr_obs.Json

let c_plans = Pvr_obs.counter "query.plans"
let c_index_hits = Pvr_obs.counter "query.index.hits"
let c_rows = Pvr_obs.counter "query.rows"

type access =
  | Scan
  | Prover_idx of int
  | Prefix_idx of { prefix : Bgp.Prefix.t; exact : bool }
  | Epoch_idx of { lo : int; hi : int }

type plan = {
  pl_access : access;
  pl_cost : int;
  pl_considered : (string * int) list; (* every candidate path and its cost *)
}

let access_to_string = function
  | Scan -> "scan"
  | Prover_idx v -> Printf.sprintf "prover[AS%d]" v
  | Prefix_idx { prefix; exact } ->
      Printf.sprintf "prefix[%s %s]"
        (if exact then "=" else "in")
        (Bgp.Prefix.to_string prefix)
  | Epoch_idx { lo; hi } -> Printf.sprintf "epoch[%d..%d]" lo hi

let plan_to_string p =
  Printf.sprintf "%s cost=%d" (access_to_string p.pl_access) p.pl_cost

let explain p =
  Printf.sprintf "plan: %s; considered: %s" (plan_to_string p)
    (String.concat ", "
       (List.map (fun (a, c) -> Printf.sprintf "%s=%d" a c) p.pl_considered))

(* ---- planning --------------------------------------------------------- *)

let rec conjuncts = function
  | Lang.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Lower access-path rank wins cost ties, so plans are deterministic:
   posting list < exact prefix < prefix subtree < epoch range < scan. *)
let rank = function
  | Prover_idx _ -> 0
  | Prefix_idx { exact = true; _ } -> 1
  | Prefix_idx { exact = false; _ } -> 2
  | Epoch_idx _ -> 3
  | Scan -> 4

let epoch_bounds idx cs =
  let lo = ref 0 and hi = ref (Evidence_index.max_epoch idx) in
  let bounded = ref false in
  List.iter
    (fun c ->
      match c with
      | Lang.Int_cmp (Lang.F_epoch, cmp, v) -> (
          match cmp with
          | Lang.Lt ->
              hi := min !hi (v - 1);
              bounded := true
          | Lang.Le ->
              hi := min !hi v;
              bounded := true
          | Lang.Gt ->
              lo := max !lo (v + 1);
              bounded := true
          | Lang.Ge ->
              lo := max !lo v;
              bounded := true
          | Lang.Eq ->
              lo := max !lo v;
              hi := min !hi v;
              bounded := true
          | Lang.Ne -> ())
      | _ -> ())
    cs;
  if !bounded then Some (!lo, !hi) else None

let candidates idx (q : Lang.t) =
  let cs = match q.Lang.q_where with Lang.True -> [] | e -> conjuncts e in
  let paths = ref [] in
  List.iter
    (fun c ->
      match c with
      | Lang.Asn_cmp (Lang.F_prover, true, v) ->
          paths := Prover_idx v :: !paths
      | Lang.Prefix_eq p ->
          paths := Prefix_idx { prefix = p; exact = true } :: !paths
      | Lang.Prefix_in p ->
          paths := Prefix_idx { prefix = p; exact = false } :: !paths
      | _ -> ())
    cs;
  (match epoch_bounds idx cs with
  | Some (lo, hi) -> paths := Epoch_idx { lo; hi } :: !paths
  | None -> ());
  Scan :: List.rev !paths

let cost idx = function
  | Scan -> Evidence_index.row_count idx
  | Prover_idx v -> Evidence_index.est_prover idx (Bgp.Asn.of_int v)
  | Prefix_idx { prefix; exact } -> Evidence_index.est_prefix idx ~exact prefix
  | Epoch_idx { lo; hi } -> Evidence_index.est_epoch_range idx ~lo ~hi

let plan idx q =
  Pvr_obs.incr c_plans;
  let cands = candidates idx q in
  let costed = List.map (fun a -> (a, cost idx a)) cands in
  let best =
    List.fold_left
      (fun (ba, bc) (a, c) ->
        if c < bc || (c = bc && rank a < rank ba) then (a, c) else (ba, bc))
      (Scan, Evidence_index.row_count idx)
      costed
  in
  {
    pl_access = fst best;
    pl_cost = snd best;
    pl_considered =
      List.map (fun (a, c) -> (access_to_string a, c)) costed;
  }

let fetch idx = function
  | Scan -> Evidence_index.ids_all idx
  | Prover_idx v -> Evidence_index.ids_prover idx (Bgp.Asn.of_int v)
  | Prefix_idx { prefix; exact } -> Evidence_index.ids_prefix idx ~exact prefix
  | Epoch_idx { lo; hi } -> Evidence_index.ids_epoch_range idx ~lo ~hi

(* ---- access control --------------------------------------------------- *)

(* A row is visible to the α map's beneficiaries of its promise: the court
   pseudo-viewer sees everything; the beneficiary is authorized for the
   minimum-length output (out:ASb); a provider is authorized for its own
   input variable (r:ASi).  op:min being public grants threshold bits only
   — never a row, which names a concrete (prover, prefix) promise. *)
let authorized_for_row ~viewer (r : Row.t) =
  Bgp.Asn.equal viewer Pvr.Leakage.court
  ||
  let alpha =
    Pvr.Access_control.figure1 ~beneficiary:(Row.beneficiary r)
      ~providers:(Row.providers r)
  in
  Pvr.Leakage.alpha_authorizes alpha ~viewer
    (Pvr.Leakage.Knows_min_length r.Row.r_len)
  || Pvr.Leakage.alpha_authorizes alpha ~viewer
       (Pvr.Leakage.Knows_route
          {
            provider = viewer;
            route = Bgp.Route.originate ~asn:viewer (Row.prefix r);
          })

(* ---- execution -------------------------------------------------------- *)

type result_ = {
  qr_rows : Row.t list;
  qr_refused : int;
  qr_plan : plan;
}

let key_compare k (a : Row.t) (b : Row.t) =
  match k with
  | Lang.By_epoch -> Int.compare a.Row.r_epoch b.Row.r_epoch
  | Lang.By_prover -> Int.compare a.Row.r_prover b.Row.r_prover
  | Lang.By_beneficiary -> Int.compare a.Row.r_beneficiary b.Row.r_beneficiary
  | Lang.By_prefix ->
      let c = Int.compare a.Row.r_addr b.Row.r_addr in
      if c <> 0 then c else Int.compare a.Row.r_len b.Row.r_len
  | Lang.By_evidence -> Int.compare a.Row.r_evidence b.Row.r_evidence
  | Lang.By_leaked -> Int.compare a.Row.r_leaked b.Row.r_leaked
  | Lang.By_excess -> Int.compare a.Row.r_excess b.Row.r_excess

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let run ?ledger idx ~viewer (q : Lang.t) =
  (* Refusals must hit the obs counter even when the caller keeps no
     ledger, so account into a throwaway one. *)
  let ledger =
    match ledger with Some l -> l | None -> Pvr.Leakage.Ledger.create ()
  in
  let pl = plan idx q in
  let ids = fetch idx pl.pl_access in
  if pl.pl_access <> Scan then Pvr_obs.add c_index_hits (List.length ids);
  (* Candidates arrive in ascending row-id order = journal order, so the
     unordered result (and order-by ties) are deterministic. *)
  let matched =
    List.filter_map
      (fun id ->
        let r = Evidence_index.row idx id in
        if Lang.admits q r then Some r else None)
      ids
  in
  (* α first: an unauthorized row must not survive into ordering or limit
     (a limit must never be padded with rows the viewer cannot see). *)
  let visible, refused =
    List.partition (fun r -> authorized_for_row ~viewer r) matched
  in
  List.iter
    (fun (_ : Row.t) -> Pvr.Leakage.Ledger.record_refusal ledger)
    refused;
  let ordered =
    match q.Lang.q_order with
    | None -> visible
    | Some (k, asc) ->
        let cmp a b =
          let c = key_compare k a b in
          if asc then c else -c
        in
        List.stable_sort cmp visible
  in
  let final =
    match q.Lang.q_limit with None -> ordered | Some n -> take n ordered
  in
  Pvr_obs.add c_rows (List.length final);
  { qr_rows = final; qr_refused = List.length refused; qr_plan = pl }

(* ---- rendering -------------------------------------------------------- *)

let to_json ~query ~viewer res =
  J.Obj
    [
      ("query", J.String (Lang.to_string query));
      ("viewer", J.Int (Bgp.Asn.to_int viewer));
      ("plan", J.String (plan_to_string res.qr_plan));
      ("row_count", J.Int (List.length res.qr_rows));
      ("refused", J.Int res.qr_refused);
      ("rows", J.List (List.map Row.to_json res.qr_rows));
    ]

let render_json ~query ~viewer res =
  J.to_string (to_json ~query ~viewer res)

let render_text ~viewer res =
  let cols =
    [
      ("epoch", fun (r : Row.t) -> string_of_int r.Row.r_epoch);
      ("prover", fun r -> Printf.sprintf "AS%d" r.Row.r_prover);
      ("prefix", fun r -> Bgp.Prefix.to_string (Row.prefix r));
      ("verdict", Row.verdict);
      ("behaviour", fun r -> r.Row.r_behaviour);
      ("kinds", fun r -> String.concat "," r.Row.r_kinds);
      ("evidence", fun r -> string_of_int r.Row.r_evidence);
      ("leaked", fun r -> string_of_int r.Row.r_leaked);
      ("excess", fun r -> string_of_int r.Row.r_excess);
    ]
  in
  let widths =
    List.map
      (fun (h, f) ->
        List.fold_left
          (fun w r -> max w (String.length (f r)))
          (String.length h) res.qr_rows)
      cols
  in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  let line cells =
    String.concat "  " (List.map2 pad widths cells) |> String.trim |> fun s ->
    s ^ "\n"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line (List.map fst cols));
  List.iter
    (fun r -> Buffer.add_string buf (line (List.map (fun (_, f) -> f r) cols)))
    res.qr_rows;
  Buffer.add_string buf
    (Printf.sprintf "%d row(s), %d refused for viewer AS%d (%s)\n"
       (List.length res.qr_rows) res.qr_refused (Bgp.Asn.to_int viewer)
       (plan_to_string res.qr_plan));
  Buffer.contents buf
