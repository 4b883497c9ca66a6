(** Simulated hosts and routers.

    A node owns interfaces (attachments to links), local addresses, a
    static route table, and a stack of protocol handlers. Packets whose
    destination is a local address are offered to the handlers in
    registration order until one consumes them; other packets are
    forwarded when forwarding is enabled (router behaviour) or dropped
    (host behaviour).

    Nodes can be taken down to model machine failures: a down node drops
    all traffic and its timers' effects are the owning subsystems'
    responsibility (they check {!is_up}). *)

type t

type iface = {
  link : Link.t;
  side : Link.side;
  local : Addr.t;
  remote : Addr.t;
}

val create : Sim.Engine.t -> ?forwarding:bool -> string -> t
(** [create engine name] is an up node with no interfaces. [forwarding]
    defaults to [false]. *)

val name : t -> string
val engine : t -> Sim.Engine.t

val attach :
  t -> Link.t -> Link.side -> local:Addr.t -> remote:Addr.t -> unit
(** Plugs the node into one side of a link, adding [local] to the node's
    addresses and installing the node's receive path as the link-side
    callback. *)

val add_address : t -> Addr.t -> unit
(** Adds a non-interface (loopback-style) local address. *)

val addresses : t -> Addr.t list
val ifaces : t -> iface list

val has_address : t -> Addr.t -> bool

val add_route : t -> Addr.prefix -> Addr.t -> unit
(** [add_route t prefix gateway] installs a static route. The gateway must
    be (or become) the remote of some interface for the route to work. *)

val add_handler : t -> (Packet.t -> bool) -> unit
(** Registers a protocol handler. Handlers run in registration order; the
    first to return [true] consumes the packet. *)

val send : t -> Packet.t -> unit
(** Emits a packet: local destinations are delivered in a fresh event
    (never reentrantly); otherwise the egress interface is chosen by
    direct-neighbour match, then longest-prefix match over static routes.
    Packets with no route are counted and dropped. *)

val is_up : t -> bool

val set_up : t -> bool -> unit
(** A down node drops everything it would send or receive. *)

(** {1 Test-only} *)

val remove_address : t -> Addr.t -> unit
(** Kept: removes a local address (e.g. a service address migrating
    away); the forwarding-cache property test drives address changes
    both ways through it. *)

val unrouted_packets : t -> int
(** Inspection: packets dropped for lack of a route. *)

val unclaimed_packets : t -> int
(** Inspection: locally addressed packets no handler consumed. *)
