(* Global registry of named counters and latency histograms.  Everything is
   gated on [enabled_flag]: an instrumented hot path pays one load + branch
   when metrics are off.

   Counter increments are atomic and the registry/histogram mutations are
   mutex-guarded so instrumented code can run on multiple domains (the
   engine's worker pool) without losing counts.  The mutex is only ever
   taken while metrics are enabled or during name registration. *)

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let registry_mutex = Mutex.create ()

let with_lock f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ---- counters ------------------------------------------------------------ *)

(* A counter is a small power-of-two array of cells, one picked by the
   calling domain's id.  Increments from different engine worker domains
   land on different cache lines instead of rendezvousing on one Atomic
   (the E13 contention profile showed that rendezvous serializing the
   pool), and a read folds the cells.  The fold is not a point-in-time
   snapshot across domains — neither was a single Atomic read racing
   concurrent increments — and totals are exact once the writers have been
   joined, which is when the engine reads them (epoch barriers, snapshot
   capture). *)

let counter_cells = 8

type counter = { c_name : string; c_cells : int Atomic.t array }

let counter_cell c =
  c.c_cells.((Domain.self () :> int) land (counter_cells - 1))

let counter_total c =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt counters_tbl name with
  | Some c -> c
  | None ->
      let c =
        { c_name = name; c_cells = Array.init counter_cells (fun _ -> Atomic.make 0) }
      in
      Hashtbl.add counters_tbl name c;
      c

let incr c = if !enabled_flag then Atomic.incr (counter_cell c)

let add c n =
  if !enabled_flag then ignore (Atomic.fetch_and_add (counter_cell c) n : int)

let value c = counter_total c

(* ---- gauges -------------------------------------------------------------- *)

(* A fixed gauge records a fact about the process (which SHA-256 kernel
   it runs): it is set once, whether or not metrics are enabled, and
   [reset_all] leaves it alone. *)
type gauge = {
  g_name : string;
  g_value : int Atomic.t;
  mutable g_fixed : bool;
}

let gauges_tbl : (string, gauge) Hashtbl.t = Hashtbl.create 16

let gauge name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt gauges_tbl name with
  | Some g -> g
  | None ->
      let g = { g_name = name; g_value = Atomic.make 0; g_fixed = false } in
      Hashtbl.add gauges_tbl name g;
      g

let set_gauge g v = if !enabled_flag then Atomic.set g.g_value v

let gauge_read g = Atomic.get g.g_value

let fixed_gauge name v =
  let g = gauge name in
  Atomic.set g.g_value v;
  g.g_fixed <- true

(* ---- histograms ---------------------------------------------------------- *)

(* Bucket [i] counts durations d with 2^(i-1) < d_ns <= 2^i; bucket 0 holds
   everything at or below 1 ns, the last bucket everything above ~4.3 s. *)
let n_buckets = 33

type histogram = {
  h_name : string;
  h_buckets : int array; (* [n_buckets] *)
  mutable h_count : int;
  mutable h_sum : float; (* seconds *)
  mutable h_min : float;
  mutable h_max : float;
}

let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt histograms_tbl name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_buckets = Array.make n_buckets 0;
          h_count = 0;
          h_sum = 0.0;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add histograms_tbl name h;
      h

let bucket_index seconds =
  let ns = int_of_float (seconds *. 1e9) in
  if ns <= 1 then 0
  else begin
    let i = ref 0 and v = ref 1 in
    while !v < ns && !i < n_buckets - 1 do
      v := !v * 2;
      Stdlib.incr i
    done;
    !i
  end

let bucket_upper_seconds i = Float.of_int (1 lsl i) *. 1e-9

let observe h seconds =
  if !enabled_flag then
    with_lock @@ fun () ->
    let seconds = if seconds < 0.0 then 0.0 else seconds in
    h.h_buckets.(bucket_index seconds) <- h.h_buckets.(bucket_index seconds) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. seconds;
    if seconds < h.h_min then h.h_min <- seconds;
    if seconds > h.h_max then h.h_max <- seconds

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let h = histogram name in
    let t0 = Unix.gettimeofday () in
    match f () with
    | x ->
        observe h (Unix.gettimeofday () -. t0);
        x
    | exception e ->
        observe h (Unix.gettimeofday () -. t0);
        raise e
  end

let reset_all () =
  with_lock @@ fun () ->
  Hashtbl.iter
    (fun _ c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells)
    counters_tbl;
  Hashtbl.iter
    (fun _ g -> if not g.g_fixed then Atomic.set g.g_value 0)
    gauges_tbl;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 n_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- infinity;
      h.h_max <- neg_infinity)
    histograms_tbl

(* ---- JSON ---------------------------------------------------------------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then
          (* %.17g round-trips but is noisy; 9 significant digits are plenty
             for millisecond timings. *)
          Buffer.add_string buf (Printf.sprintf "%.9g" f)
        else Buffer.add_string buf "null"
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            write buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf
end

(* ---- snapshots ----------------------------------------------------------- *)

type histogram_stats = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
}

let quantile stats q =
  if stats.hs_count = 0 then 0.0
  else begin
    let target =
      int_of_float (Float.of_int stats.hs_count *. q) |> max 1
    in
    let rec go seen = function
      | [] -> stats.hs_max
      | (upper, n) :: rest ->
          if seen + n >= target then upper else go (seen + n) rest
    in
    (* A bucket's upper edge can lie past every observation (or, for the
       first bucket, below all of them): clamp to the observed range. *)
    Float.min stats.hs_max (Float.max stats.hs_min (go 0 stats.hs_buckets))
  end

module Snapshot = struct
  type t = {
    s_counters : (string * int) list; (* sorted by name *)
    s_gauges : (string * int) list; (* sorted by name *)
    s_histograms : (string * histogram_stats) list; (* sorted by name *)
  }

  let capture () =
    with_lock @@ fun () ->
    let cs =
      Hashtbl.fold
        (fun name c acc -> (name, counter_total c) :: acc)
        counters_tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let gs =
      Hashtbl.fold
        (fun name g acc -> (name, Atomic.get g.g_value) :: acc)
        gauges_tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    let hs =
      Hashtbl.fold
        (fun name h acc ->
          let buckets = ref [] in
          for i = n_buckets - 1 downto 0 do
            if h.h_buckets.(i) > 0 then
              buckets := (bucket_upper_seconds i, h.h_buckets.(i)) :: !buckets
          done;
          ( name,
            {
              hs_count = h.h_count;
              hs_sum = h.h_sum;
              hs_min = (if h.h_count = 0 then 0.0 else h.h_min);
              hs_max = (if h.h_count = 0 then 0.0 else h.h_max);
              hs_buckets = !buckets;
            } )
          :: acc)
        histograms_tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    { s_counters = cs; s_gauges = gs; s_histograms = hs }

  let counter_value t name =
    Option.value (List.assoc_opt name t.s_counters) ~default:0

  let gauges t = t.s_gauges

  let gauge_value t name =
    Option.value (List.assoc_opt name t.s_gauges) ~default:0

  let histograms t = t.s_histograms

  let diff ~before ~after =
    let cs =
      List.map
        (fun (name, v) ->
          (name, v - Option.value (List.assoc_opt name before.s_counters) ~default:0))
        after.s_counters
    in
    let hs =
      List.map
        (fun (name, (a : histogram_stats)) ->
          match List.assoc_opt name before.s_histograms with
          | None -> (name, a)
          | Some b ->
              let buckets =
                List.filter_map
                  (fun (upper, n) ->
                    let prev =
                      Option.value (List.assoc_opt upper b.hs_buckets) ~default:0
                    in
                    if n - prev > 0 then Some (upper, n - prev) else None)
                  a.hs_buckets
              in
              ( name,
                {
                  hs_count = a.hs_count - b.hs_count;
                  hs_sum = a.hs_sum -. b.hs_sum;
                  hs_min = a.hs_min;
                  hs_max = a.hs_max;
                  hs_buckets = buckets;
                } ))
        after.s_histograms
    in
    (* Gauges are levels, not rates: a diff keeps the [after] reading. *)
    { s_counters = cs; s_gauges = after.s_gauges; s_histograms = hs }

  let to_json t =
    let ms x = Json.Float (x *. 1000.0) in
    Json.Obj
      [
        ( "counters",
          Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) t.s_counters)
        );
        ( "gauges",
          Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) t.s_gauges)
        );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (name, (s : histogram_stats)) ->
                 ( name,
                   Json.Obj
                     [
                       ("count", Json.Int s.hs_count);
                       ("sum_ms", ms s.hs_sum);
                       ("min_ms", ms s.hs_min);
                       ("max_ms", ms s.hs_max);
                       ("p50_ms", ms (quantile s 0.5));
                       ("p95_ms", ms (quantile s 0.95));
                     ] ))
               t.s_histograms) );
      ]
end
