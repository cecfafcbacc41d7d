type event = { at_ms : int; route : Route.t }

let random_route rng ~origin =
  let prefix = Prefix.random rng in
  let hops = 1 + Pvr_crypto.Drbg.uniform_int rng 5 in
  let path =
    List.init hops (fun i ->
        if i = hops - 1 then origin
        else Asn.of_int (64512 + Pvr_crypto.Drbg.uniform_int rng 1000))
  in
  let base = Route.originate ~asn:origin prefix in
  let r = { base with Route.as_path = path } in
  match path with [] -> r | hd :: _ -> { r with Route.next_hop = hd }

(* Truncated geometric: mean ~ [mean], capped at 8x mean. *)
let geometric rng mean =
  if mean <= 1 then 1
  else begin
    let p = 1.0 /. float_of_int mean in
    let cap = 8 * mean in
    let rec go n =
      if n >= cap then cap
      else if Pvr_crypto.Drbg.uniform_int rng 1_000_000 < int_of_float (p *. 1_000_000.) then n
      else go (n + 1)
    in
    go 1
  end

let bursty rng ~duration_ms ~base_rate_per_s ~burst_every_ms ~burst_size_mean
    ~origin =
  let events = ref [] in
  (* Background traffic: Bernoulli per millisecond. *)
  let per_ms = base_rate_per_s /. 1000.0 in
  let threshold = int_of_float (per_ms *. 1_000_000.) in
  for ms = 0 to duration_ms - 1 do
    if Pvr_crypto.Drbg.uniform_int rng 1_000_000 < threshold then
      events := { at_ms = ms; route = random_route rng ~origin } :: !events;
    if burst_every_ms > 0 && ms mod burst_every_ms = 0 && ms > 0 then begin
      let n = geometric rng burst_size_mean in
      for _ = 1 to n do
        events := { at_ms = ms; route = random_route rng ~origin } :: !events
      done
    end
  done;
  List.stable_sort (fun a b -> Int.compare a.at_ms b.at_ms) (List.rev !events)

module Churn = struct
  type slot = { origin : Asn.t; prefix : Prefix.t; mutable live : bool }
  type t = { slots : slot array }

  type change =
    | Announce of Asn.t * Prefix.t
    | Withdraw of Asn.t * Prefix.t

  (* One deterministic prefix per (origin index, prefix index): a /24 inside
     10.0.0.0/8, so churn prefixes never collide with experiment-chosen
     prefixes like the quickstart's 8.8.8.0/24. *)
  let slot_prefix i j =
    Prefix.make ~addr:((10 lsl 24) lor ((i + 1) lsl 16) lor (j lsl 8)) ~len:24

  (* Anycast prefixes live in a sibling /16 range so they never collide
     with the per-origin slots. *)
  let anycast_prefix j =
    Prefix.make ~addr:((10 lsl 24) lor (255 lsl 16) lor (j lsl 8)) ~len:24

  let create ?(anycast = 0) ~origins ~prefixes_per_origin () =
    let per_origin =
      List.concat
        (List.mapi
           (fun i origin ->
             List.init prefixes_per_origin (fun j ->
                 { origin; prefix = slot_prefix i j; live = false }))
           origins)
    in
    let n_origins = List.length origins in
    let anycast_slots =
      if n_origins < 2 then []
      else
        List.concat
          (List.init anycast (fun j ->
               let prefix = anycast_prefix j in
               [
                 { origin = List.nth origins (j mod n_origins); prefix; live = false };
                 {
                   origin = List.nth origins ((j + 1) mod n_origins);
                   prefix;
                   live = false;
                 };
               ]))
    in
    { slots = Array.of_list (per_origin @ anycast_slots) }

  let size t = Array.length t.slots

  let live_count t =
    Array.fold_left (fun n s -> if s.live then n + 1 else n) 0 t.slots

  let apply sim = function
    | Announce (asn, prefix) -> Simulator.originate sim ~asn prefix
    | Withdraw (asn, prefix) -> Simulator.withdraw_origin sim ~asn prefix

  let seed t sim =
    Array.to_list t.slots
    |> List.filter_map (fun s ->
           if s.live then None
           else begin
             s.live <- true;
             let c = Announce (s.origin, s.prefix) in
             apply sim c;
             Some c
           end)

  let step rng ~turnover t sim =
    let n = Array.length t.slots in
    let flips = int_of_float (Float.of_int n *. turnover +. 0.5) in
    let flips = max 0 (min n flips) in
    (* Sample [flips] distinct slots with a partial Fisher-Yates shuffle over
       the index array, so the set of flipped slots is a pure function of the
       DRBG stream. *)
    let idx = Array.init n Fun.id in
    for k = 0 to flips - 1 do
      let r = k + Pvr_crypto.Drbg.uniform_int rng (n - k) in
      let tmp = idx.(k) in
      idx.(k) <- idx.(r);
      idx.(r) <- tmp
    done;
    List.init flips (fun k ->
        let s = t.slots.(idx.(k)) in
        s.live <- not s.live;
        let c =
          if s.live then Announce (s.origin, s.prefix)
          else Withdraw (s.origin, s.prefix)
        in
        apply sim c;
        c)
end

let batches ~window_ms events =
  let table = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let w = e.at_ms / window_ms in
      let cur = Option.value (Hashtbl.find_opt table w) ~default:[] in
      Hashtbl.replace table w (e.route :: cur))
    events;
  Hashtbl.fold (fun w routes acc -> (w, List.rev routes) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd
