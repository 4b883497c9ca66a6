(** Point-to-point links.

    A link joins two endpoints, [A] and [B]. Each direction has its own
    serialization queue: a packet occupies the transmitter for
    [size / bandwidth] and then propagates for the link delay. Packets are
    lost when the link is down (including those in flight at failure
    time), or with the configured random loss probability.

    Receivers are plain callbacks, installed by {!Node.attach}; the link
    layer knows nothing about nodes, which keeps the dependency graph
    acyclic.

    {b In flight.} Each direction's packets in flight are the items of
    one {!Sim.Engine.fifo} labelled [net.deliver]: each packet is one
    engine event at its arrival instant, but only the earliest sits in
    the event queue, so a hop allocates nothing. Arrivals are
    dispatched in (instant, transmission order), exactly as if each
    packet carried its own delivery event.
    - A failure ({!set_up} [false], {!fail_for}) records the next engine
      event id. Packets sent before it stay in the fifo, still arrive
      at their instants, and count as dropped instead of delivered.
    - {!set_delay} applies to packets transmitted after it. Lowering
      it while packets are in flight lets a later packet arrive first;
      the fifo inserts it in arrival order. *)

type t

type side = A | B

val create :
  Sim.Engine.t ->
  ?delay:Sim.Time.span ->
  ?bandwidth_bps:int ->
  unit ->
  t
(** [create engine ()] is an up, lossless link with defaults: 50 µs
    delay, 100 Gbps. [bandwidth_bps = 0] means infinite bandwidth.
    [bandwidth_bps] is a test seam: every product link runs at 100 Gbps,
    and test_netsim slows one to see serialization and queueing. *)

val set_receiver : t -> side -> (Packet.t -> unit) -> unit
(** Installs the delivery callback for packets arriving at [side]. *)

val transmit : t -> from:side -> Packet.t -> unit
(** Queues a packet for the far end. Silently dropped when the link is
    down or the loss draw fails. *)

val set_up : t -> bool -> unit
(** Setting a link down drops queued and in-flight packets. *)

val fail_for : t -> Sim.Time.span -> unit
(** [fail_for t span] models a transient failure (e.g. network jitter):
    the link goes down now and comes back after [span]. *)

val set_delay : t -> Sim.Time.span -> unit
val set_loss : t -> float -> unit

val tap : t -> (side -> Packet.t -> unit) -> unit
(** [tap t f] invokes [f arriving_side packet] on every successful
    delivery, after the receiver callback. Experiments use taps to detect
    traffic gaps. *)

(** {1 Test-only} *)

val delivered_packets : t -> int
(** Inspection: packets delivered, both directions. *)

val dropped_packets : t -> int
(** Inspection: packets lost to a down link, random loss or a failure
    in flight, both directions; no tap sees them. *)
