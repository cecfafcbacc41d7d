module Asn = Pvr_bgp.Asn
module Drbg = Pvr_crypto.Drbg

type policy = {
  drop : float;
  duplicate : float;
  delay_min : int;
  delay_max : int;
  reorder : bool;
  partition : bool;
  heal_at : int option;
}

let perfect =
  {
    drop = 0.0;
    duplicate = 0.0;
    delay_min = 0;
    delay_max = 0;
    reorder = false;
    partition = false;
    heal_at = None;
  }

let faulty ?(drop = 0.0) ?(duplicate = 0.0) ?(delay_min = 0) ?(delay_max = 0)
    ?(reorder = false) ?(partition = false) ?heal_at () =
  { drop; duplicate; delay_min; delay_max; reorder; partition; heal_at }

type stats = {
  mutable sends : int;
  mutable drops : int;
  mutable duplicates : int;
  mutable deliveries : int;
  mutable partition_drops : int;
}

(* An in-flight message: due tick, send sequence (the deterministic
   tie-break within a tick), endpoints, payload, and the tick it was
   offered (for the delay histogram). *)
type 'm flight = {
  due : int;
  fseq : int;
  fsrc : Asn.t;
  fdst : Asn.t;
  fmsg : 'm;
  sent_at : int;
}

type 'm t = {
  rng : Drbg.t;
  policy : policy;
  links : ((Asn.t * Asn.t) * policy) list;
  mutable time : int;
  mutable seq : int;
  mutable queue : 'm flight list;
  st : stats;
}

let obs_sends = Pvr_obs.counter "net.sends"
let obs_drops = Pvr_obs.counter "net.drops"
let obs_duplicates = Pvr_obs.counter "net.duplicates"
let obs_deliveries = Pvr_obs.counter "net.deliveries"
let obs_partition_drops = Pvr_obs.counter "net.partition_drops"
let obs_retries = Pvr_obs.counter "net.retries"
let obs_timeouts = Pvr_obs.counter "net.timeouts"
let obs_delay = Pvr_obs.histogram "net.delay_ticks"

let create ?(policy = perfect) ?(links = []) ~rng () =
  {
    rng;
    policy;
    links;
    time = 0;
    seq = 0;
    queue = [];
    st = { sends = 0; drops = 0; duplicates = 0; deliveries = 0;
           partition_drops = 0 };
  }

let now t = t.time
let pending t = List.length t.queue
let stats t = t.st

let link_policy t src dst =
  let same (a, b) =
    (Asn.equal a src && Asn.equal b dst) || (Asn.equal a dst && Asn.equal b src)
  in
  match List.find_opt (fun (pair, _) -> same pair) t.links with
  | Some (_, p) -> p
  | None -> t.policy

(* Bernoulli draw; consumes the DRBG only for non-trivial rates so a
   perfect network is draw-free (and hence seed-stream neutral). *)
let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else Drbg.uniform_int t.rng 1_000_000 < int_of_float (p *. 1_000_000.0)

let draw_delay t (p : policy) =
  if p.delay_max <= p.delay_min then max 0 p.delay_min
  else p.delay_min + Drbg.uniform_int t.rng (p.delay_max - p.delay_min + 1)

let enqueue t ~src ~dst ~delay msg =
  let fl =
    {
      due = t.time + 1 + delay;
      fseq = t.seq;
      fsrc = src;
      fdst = dst;
      fmsg = msg;
      sent_at = t.time;
    }
  in
  t.seq <- t.seq + 1;
  t.queue <- fl :: t.queue

let send t ~src ~dst msg =
  t.st.sends <- t.st.sends + 1;
  Pvr_obs.incr obs_sends;
  let p = link_policy t src dst in
  let partitioned =
    p.partition
    && match p.heal_at with None -> true | Some h -> t.time < h
  in
  if partitioned then begin
    t.st.partition_drops <- t.st.partition_drops + 1;
    Pvr_obs.incr obs_partition_drops
  end
  else if chance t p.drop then begin
    t.st.drops <- t.st.drops + 1;
    Pvr_obs.incr obs_drops
  end
  else begin
    enqueue t ~src ~dst ~delay:(draw_delay t p) msg;
    if chance t p.duplicate then begin
      t.st.duplicates <- t.st.duplicates + 1;
      Pvr_obs.incr obs_duplicates;
      enqueue t ~src ~dst ~delay:(draw_delay t p) msg
    end
  end

let tick t =
  t.time <- t.time + 1;
  let due, later = List.partition (fun fl -> fl.due <= t.time) t.queue in
  t.queue <- later;
  let due = List.sort (fun a b -> compare a.fseq b.fseq) due in
  let shuffled =
    if List.exists (fun fl -> (link_policy t fl.fsrc fl.fdst).reorder) due
       && List.length due > 1
    then begin
      let arr = Array.of_list due in
      Drbg.shuffle t.rng arr;
      Array.to_list arr
    end
    else due
  in
  List.map
    (fun fl ->
      t.st.deliveries <- t.st.deliveries + 1;
      Pvr_obs.incr obs_deliveries;
      Pvr_obs.observe obs_delay (float_of_int (t.time - fl.sent_at));
      (fl.fsrc, fl.fdst, fl.fmsg))
    shuffled

let run ?(max_ticks = 1000) t ~handler () =
  let start = t.time in
  while t.queue <> [] && t.time - start < max_ticks do
    List.iter (fun (src, dst, msg) -> handler ~src ~dst msg) (tick t)
  done;
  t.time - start

(* ---- Bounded-retry reliable channel -------------------------------------- *)

module Reliable = struct
  let transport_send = send
  let transport_tick = tick

  type 'm envelope =
    | Data of { seq : int; dsrc : Asn.t; ddst : Asn.t; body : 'm }
    | Ack of { seq : int }

  type 'm entry = {
    e_src : Asn.t;
    e_dst : Asn.t;
    e_body : 'm;
    mutable last_sent : int;
    mutable attempts : int;  (* retransmissions performed *)
  }

  type 'm conn = {
    net : 'm envelope t;
    interval : int;
    budget : int;
    outstanding : (int, 'm entry) Hashtbl.t;
    acked_log : (Asn.t * Asn.t * 'm, unit) Hashtbl.t;
    mutable next_seq : int;
    mutable n_data_sends : int;
    mutable n_retries : int;
    mutable n_failures : int;
  }

  let create ?(interval = 2) ?(budget = 3) net =
    {
      net;
      interval = max 1 interval;
      budget = max 0 budget;
      outstanding = Hashtbl.create 16;
      acked_log = Hashtbl.create 16;
      next_seq = 0;
      n_data_sends = 0;
      n_retries = 0;
      n_failures = 0;
    }

  let net c = c.net
  let data_sends c = c.n_data_sends
  let retries c = c.n_retries
  let failures c = c.n_failures

  let send c ~src ~dst body =
    let seq = c.next_seq in
    c.next_seq <- seq + 1;
    Hashtbl.replace c.outstanding seq
      { e_src = src; e_dst = dst; e_body = body; last_sent = now c.net;
        attempts = 0 };
    c.n_data_sends <- c.n_data_sends + 1;
    transport_send c.net ~src ~dst (Data { seq; dsrc = src; ddst = dst; body })

  let acked c ~src ~dst body = Hashtbl.mem c.acked_log (src, dst, body)

  (* One transport tick: deliver data to the handler (acking it), absorb
     acks, then retransmit or abandon overdue sends in sequence order so
     the DRBG draw order is deterministic. *)
  let step c ~handler =
    let delivered = transport_tick c.net in
    List.iter
      (fun (_, _, env) ->
        match env with
        | Ack { seq } -> begin
            match Hashtbl.find_opt c.outstanding seq with
            | Some e ->
                Hashtbl.replace c.acked_log (e.e_src, e.e_dst, e.e_body) ();
                Hashtbl.remove c.outstanding seq
            | None -> ()
          end
        | Data { seq; dsrc; ddst; body } ->
            transport_send c.net ~src:ddst ~dst:dsrc (Ack { seq });
            handler ~src:dsrc ~dst:ddst body)
      delivered;
    let due =
      Hashtbl.fold
        (fun seq e acc ->
          if now c.net - e.last_sent >= c.interval then (seq, e) :: acc
          else acc)
        c.outstanding []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (seq, e) ->
        if e.attempts >= c.budget then begin
          c.n_failures <- c.n_failures + 1;
          Pvr_obs.incr obs_timeouts;
          Hashtbl.remove c.outstanding seq
        end
        else begin
          e.attempts <- e.attempts + 1;
          e.last_sent <- now c.net;
          c.n_retries <- c.n_retries + 1;
          Pvr_obs.incr obs_retries;
          c.n_data_sends <- c.n_data_sends + 1;
          transport_send c.net ~src:e.e_src ~dst:e.e_dst
            (Data { seq; dsrc = e.e_src; ddst = e.e_dst; body = e.e_body })
        end)
      due

  let run ?(max_ticks = 1000) c ~handler () =
    let start = now c.net in
    while
      (pending c.net > 0 || Hashtbl.length c.outstanding > 0)
      && now c.net - start < max_ticks
    do
      step c ~handler
    done;
    now c.net - start
end

(* ---- Byte mangling --------------------------------------------------------- *)

module Fuzz = struct
  (* One random mutation of the input bytes (may return it unchanged only
     when the input is empty). *)
  let mutate rng s =
    let n = String.length s in
    if n = 0 then String.make (Drbg.uniform_int rng 8) '\x00'
    else
      match Drbg.uniform_int rng 5 with
      | 0 ->
          (* truncate *)
          String.sub s 0 (Drbg.uniform_int rng n)
      | 1 ->
          (* flip one byte *)
          let i = Drbg.uniform_int rng n in
          String.mapi
            (fun j c ->
              if j = i then Char.chr (Char.code c lxor (1 + Drbg.uniform_int rng 255))
              else c)
            s
      | 2 ->
          (* garble a 4-byte window: length prefixes live here *)
          let i = Drbg.uniform_int rng n in
          let junk = Drbg.generate rng 4 in
          String.init n (fun j ->
              if j >= i && j < i + 4 && j - i < 4 then junk.[j - i] else s.[j])
      | 3 ->
          (* splice two halves of itself *)
          let i = Drbg.uniform_int rng (n + 1) in
          String.sub s i (n - i) ^ String.sub s 0 i
      | _ ->
          (* append trailing junk *)
          s ^ Drbg.generate rng (1 + Drbg.uniform_int rng 8)

  let mangle rng s =
    let passes = 1 + Drbg.uniform_int rng 4 in
    let rec go k s = if k = 0 then s else go (k - 1) (mutate rng s) in
    go passes s
end
