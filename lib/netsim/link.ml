open Sim

type side = A | B

let other = function A -> B | B -> A

(* One side of the link: its receiver, and the transmitter and
   in-flight packets of the direction leaving it. In flight is a ring,
   oldest first, of the packets and the ids of their delivery events;
   the capacity is zero or a power of two. Every delivery event of a
   direction runs the one [arrive] action built with the link, which
   takes its packet from the ring, so a hop allocates only its event. *)
type endpoint = {
  mutable deliver : (Packet.t -> unit) option;
  mutable busy_until : Time.t; (* when this direction's transmitter frees *)
  mutable pkts : Packet.t array;
  mutable ids : int array;
  mutable head : int;
  mutable len : int;
  mutable arrive : unit -> unit;
}

type t = {
  lname : string;
  eng : Engine.t;
  a : endpoint;
  b : endpoint;
  mutable prop_delay : Time.span;
  mutable bandwidth_bps : int;
  mutable loss : float;
  mutable up : bool;
  (* The first event id scheduled since the last failure: a delivery
     event with a smaller id was in flight when the link went down. *)
  mutable live_from : int;
  mutable taps : (side -> Packet.t -> unit) list;
  rng : Rng.t;
  mutable tx : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  (* Split flag + instant rather than [Time.t option]: the delivery
     event fires once per packet and a [Some] store there allocated on
     every delivery (h1 hot-path allocation budget). *)
  mutable has_delivered : bool;
  mutable last_delivery_at : Time.t;
}

(* Fills the ring's free slots, so a delivered packet is not kept alive
   by its link. *)
let hole =
  {
    Packet.id = -1;
    src = Addr.of_int 0;
    dst = Addr.of_int 0;
    size = 1;
    ttl = 0;
    payload = Packet.Raw "";
  }

let endpoint_create () =
  {
    deliver = None;
    busy_until = Time.zero;
    pkts = [||];
    ids = [||];
    head = 0;
    len = 0;
    arrive = ignore;
  }

let slot q k = (q.head + k) land (Array.length q.pkts - 1)

let push q pkt id =
  let cap = Array.length q.pkts in
  if q.len = cap then begin
    let n = Int.max 1 (2 * cap) in
    let pkts = Array.make n hole and ids = Array.make n 0 in
    for k = 0 to q.len - 1 do
      pkts.(k) <- q.pkts.(slot q k);
      ids.(k) <- q.ids.(slot q k)
    done;
    q.pkts <- pkts;
    q.ids <- ids;
    q.head <- 0
  end;
  let i = slot q q.len in
  q.pkts.(i) <- pkt;
  q.ids.(i) <- id;
  q.len <- q.len + 1

(* Takes the packet whose delivery event is [id] out of the ring. That
   is the oldest one unless the delay was lowered mid-flight, which
   lets a later packet overtake: its entry is then found further in,
   and the older entries move up one slot to close the gap. *)
let rec find q id k =
  if k = q.len then invalid_arg "Link: a delivery with no packet in flight"
  else if q.ids.(slot q k) = id then k
  else find q id (k + 1)

let take q id =
  let k = find q id 0 in
  let pkt = q.pkts.(slot q k) in
  for j = k downto 1 do
    q.pkts.(slot q j) <- q.pkts.(slot q (j - 1));
    q.ids.(slot q j) <- q.ids.(slot q (j - 1))
  done;
  q.pkts.(q.head) <- hole;
  q.head <- slot q 1;
  q.len <- q.len - 1;
  pkt

let clear q =
  Array.fill q.pkts 0 (Array.length q.pkts) hole;
  q.head <- 0;
  q.len <- 0

(* Default-name counter, domain-local so two domains creating unnamed
   links concurrently don't race — and each domain numbers its links
   from 1 like a fresh process, keeping names replay-stable. *)
let link_count = Domain.DLS.new_key (fun () -> ref 0)

let name t = t.lname
let engine t = t.eng
let endpoint t = function A -> t.a | B -> t.b

let set_receiver t side f = (endpoint t side).deliver <- Some f

let serialization_delay t size =
  if t.bandwidth_bps <= 0 then 0
  else
    (* size bytes * 8 bits * 1e9 ns / bandwidth. Order the arithmetic to
       avoid overflow for realistic sizes (< 1 GB). *)
    size * 8 * 1_000_000_000 / t.bandwidth_bps

(* The delivery action of the direction leaving [q], arriving at
   [dst_side]. *)
let arrive t q dst_side =
  let id = Engine.current_event_id t.eng in
  if id < t.live_from then t.dropped <- t.dropped + 1
  else begin
    let pkt = take q id in
    t.delivered <- t.delivered + 1;
    t.bytes <- t.bytes + pkt.Packet.size;
    t.has_delivered <- true;
    t.last_delivery_at <- Engine.now t.eng;
    (match (endpoint t dst_side).deliver with Some f -> f pkt | None -> ());
    (* Taps are a debug feature and almost always absent; the
       empty-list guard keeps the per-delivery path from building an
       iteration closure for nobody. *)
    match t.taps with
    | [] -> ()
    | taps -> List.iter (fun tap -> tap dst_side pkt) taps
  end

let create eng ?(delay = Time.us 50) ?(bandwidth_bps = 100_000_000_000)
    ?(loss = 0.0) ?name () =
  let link_count = Domain.DLS.get link_count in
  incr link_count;
  let lname =
    match name with Some n -> n | None -> Printf.sprintf "link%d" !link_count
  in
  let t =
    {
      lname;
      eng;
      a = endpoint_create ();
      b = endpoint_create ();
      prop_delay = delay;
      bandwidth_bps;
      loss;
      up = true;
      live_from = 0;
      taps = [];
      rng = Rng.split (Engine.rng eng);
      tx = 0;
      delivered = 0;
      dropped = 0;
      bytes = 0;
      has_delivered = false;
      last_delivery_at = Time.zero;
    }
  in
  t.a.arrive <- (fun () -> arrive t t.a B);
  t.b.arrive <- (fun () -> arrive t t.b A);
  t

(* Arrivals leaving one side never decrease while the delay holds, as
   [busy_until] only grows and a failure empties the ring, so [take]
   finds a delivery's packet at the head of the ring. *)
let transmit t ~from pkt =
  if (not t.up) || Rng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
  else begin
    t.tx <- t.tx + 1;
    let q = endpoint t from in
    let start = Int.max (Engine.now t.eng) q.busy_until in
    let finish = Time.add start (serialization_delay t pkt.Packet.size) in
    q.busy_until <- finish;
    push q pkt (Engine.next_id t.eng);
    ignore
      (Engine.schedule_at t.eng ~label:"net.deliver"
         (Time.add finish t.prop_delay) q.arrive)
  end

let is_up t = t.up

let set_up t flag =
  if t.up && not flag then begin
    (* Going down loses everything in flight or queued. *)
    t.live_from <- Engine.next_id t.eng;
    clear t.a;
    clear t.b;
    t.a.busy_until <- Engine.now t.eng;
    t.b.busy_until <- Engine.now t.eng
  end;
  t.up <- flag

let fail_for t span =
  set_up t false;
  ignore
    (Engine.schedule_after t.eng ~label:"net.link_heal" span (fun () ->
         set_up t true))

let set_delay t d = t.prop_delay <- d
let delay t = t.prop_delay
let set_loss t l = t.loss <- l
let tap t f = t.taps <- f :: t.taps
let tx_packets t = t.tx
let delivered_packets t = t.delivered
let dropped_packets t = t.dropped
let delivered_bytes t = t.bytes
let last_delivery t = if t.has_delivered then Some t.last_delivery_at else None
