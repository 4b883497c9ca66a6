(** Simulated packets.

    A packet carries a source and destination address, a wire size in
    bytes (used for serialization delay), a TTL (loop guard for the static
    forwarder), and a protocol payload. The payload type is extensible so
    that each protocol library (TCP, BFD, RPC, probes) declares its own
    constructor without [netsim] depending on any of them.

    A packet is one object along its whole path: a forwarding node
    decrements its TTL in place instead of copying it, and a link keeps
    the object itself in flight. So a packet is sent once: a sender
    builds a fresh packet for every transmission, retransmissions
    included (TCP, BFD and RPC all do). A link tap runs after the
    receiving node, so on a link into a router it sees the TTL already
    decremented for the next hop. *)

type payload = ..
(** Extended by protocol libraries, e.g. [Tcp.Segment_payload]. *)

type payload += Raw of string
(** An opaque payload for tests and simple tools. *)

type t = {
  src : Addr.t;
  dst : Addr.t;
  size : int;  (** Total wire bytes, headers included. *)
  mutable ttl : int;  (** Decremented in place by each forwarding hop. *)
  payload : payload;
}

val make : ?ttl:int -> src:Addr.t -> dst:Addr.t -> size:int -> payload -> t
(** [make ~src ~dst ~size payload] is a fresh packet with a default TTL
    of 64. [size] must be positive. *)

val dummy : t
(** A packet that is never sent: it fills the free slots of
    packet queues, so a delivered packet is not kept alive by them. *)

val decrement_ttl : t -> bool
(** [decrement_ttl p] takes one hop off [p]'s TTL in place and is [true],
    or is [false], leaving [p] unchanged, when the TTL is exhausted. *)
