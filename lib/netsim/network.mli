(** Topology builder and registry.

    Thin convenience layer over {!Node} and {!Link}: it names nodes,
    allocates point-to-point subnets (from 10.0.0.0/8) for links, and
    keeps a registry so experiments can look components up by name. *)

type t

val create : Sim.Engine.t -> t
val engine : t -> Sim.Engine.t

val add_node : t -> ?forwarding:bool -> string -> Node.t
(** Creates and registers a node. Raises [Invalid_argument] if the name
    is taken. *)

val connect :
  t ->
  ?delay:Sim.Time.span ->
  Node.t ->
  Node.t ->
  Link.t * Addr.t * Addr.t
(** [connect t a b] creates a link between [a] and [b], allocating a fresh
    /30-style address pair; returns the link and the two addresses
    ([a]'s first). Defaults match {!Link.create}. *)

val add_leaf :
  t ->
  ?forwarding:bool ->
  ?delay:Sim.Time.span ->
  uplink:Node.t ->
  string ->
  Node.t * Addr.t
(** [add_leaf t ~uplink name] adds node [name] on a fresh link to
    [uplink] ({!add_node}, then {!connect}), with a default route
    through [uplink]: a machine hanging off the fabric. Returns the node
    and its address on that link. *)

val fresh_private_subnet : t -> int
(** Allocates the next index from a per-network counter for private
    (non-fabric) subnets — vEth pairs and similar. Keeping the counter
    per network, not process-global, makes addresses reproducible when
    several networks are built in one process (chaos replay). *)

val link_between : t -> Node.t -> Node.t -> Link.t option
(** The first link directly joining the two nodes, if any. *)
