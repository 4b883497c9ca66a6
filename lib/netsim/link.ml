open Sim

type side = A | B

(* One side of the link: its receiver, and the transmitter and
   in-flight packets of the direction leaving it. The packets in flight
   are an engine fifo: each is one [net.deliver] event at its arrival
   instant, and a hop allocates nothing. *)
type endpoint = {
  mutable deliver : (Packet.t -> unit) option;
  mutable busy_until : Time.t; (* when this direction's transmitter frees *)
  in_flight : Packet.t Engine.fifo;
}

type t = {
  eng : Engine.t;
  a : endpoint;
  b : endpoint;
  mutable prop_delay : Time.span;
  bandwidth_bps : int;
  mutable loss : float;
  mutable up : bool;
  (* The first event id scheduled since the last failure: a delivery
     event with a smaller id was in flight when the link went down. *)
  mutable live_from : int;
  mutable taps : (side -> Packet.t -> unit) list;
  rng : Rng.t;
  mutable delivered : int;
  mutable dropped : int;
}

let endpoint_create eng =
  {
    deliver = None;
    busy_until = Time.zero;
    in_flight = Engine.fifo eng ~label:"net.deliver" ~dummy:Packet.dummy;
  }

let endpoint t = function A -> t.a | B -> t.b

let set_receiver t side f = (endpoint t side).deliver <- Some f

let serialization_delay t size =
  if t.bandwidth_bps <= 0 then 0
  else
    (* size bytes * 8 bits * 1e9 ns / bandwidth. Order the arithmetic to
       avoid overflow for realistic sizes (< 1 GB). *)
    size * 8 * 1_000_000_000 / t.bandwidth_bps

(* The handler of the packets arriving at [dst_side]. *)
let arrive t dst_side pkt =
  if Engine.current_event_id t.eng < t.live_from then t.dropped <- t.dropped + 1
  else begin
    t.delivered <- t.delivered + 1;
    (match (endpoint t dst_side).deliver with Some f -> f pkt | None -> ());
    (* Taps are a debug feature and almost always absent; the
       empty-list guard keeps the per-delivery path from building an
       iteration closure for nobody. *)
    match t.taps with
    | [] -> ()
    | taps -> List.iter (fun tap -> tap dst_side pkt) taps
  end

let create eng ?(delay = Time.us 50) ?(bandwidth_bps = 100_000_000_000) () =
  let t =
    {
      eng;
      a = endpoint_create eng;
      b = endpoint_create eng;
      prop_delay = delay;
      bandwidth_bps;
      loss = 0.0;
      up = true;
      live_from = 0;
      taps = [];
      rng = Rng.split (Engine.rng eng);
      delivered = 0;
      dropped = 0;
    }
  in
  Engine.set_handler t.a.in_flight (arrive t B);
  Engine.set_handler t.b.in_flight (arrive t A);
  t

let transmit t ~from pkt =
  if (not t.up) || Rng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
  else begin
    let q = endpoint t from in
    let start = Int.max (Engine.now t.eng) q.busy_until in
    let finish = Time.add start (serialization_delay t pkt.Packet.size) in
    q.busy_until <- finish;
    Engine.enqueue q.in_flight (Time.add finish t.prop_delay) pkt
  end

let set_up t flag =
  if t.up && not flag then begin
    (* Going down loses everything in flight or queued: those packets
       still arrive, and [arrive] counts them dropped. *)
    t.live_from <- Engine.next_id t.eng;
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
let set_loss t l = t.loss <- l
let tap t f = t.taps <- f :: t.taps
let delivered_packets t = t.delivered
let dropped_packets t = t.dropped
