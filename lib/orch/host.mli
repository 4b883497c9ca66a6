(** Host machines running TENSOR containers.

    A host owns a forwarding node on the fabric, creates containers
    (vEth pair + host-side route, the §3.2.3 underlay design), runs a
    Docker-daemon-like process monitor, accounts container resources
    (Figure 6(d)), and implements the split-brain defences:

    - a {e controller lease}: if no controller heartbeat arrives for the
      lease timeout, the host fences its own containers (kills their
      networking). The lease is shorter than the controller's host-failure
      confirmation timer, so by the time the controller migrates, a
      partitioned-but-alive primary can no longer speak — this closes the
      window the paper's "no re-use before manual reset" rule addresses;
    - explicit {!fence} / {!reset} for the controller's quarantine flow.

    Failure injection covers Table 1's host-machine (E3) and host-network
    (E5) scenarios. *)

(** RPC vocabulary of the host's ["host_ctl"] service (controller side
    constructs requests; host replies). *)
type Netsim.Rpc.body +=
  | Host_check_container of string  (** → {!Host_container_state}. *)
  | Host_container_state of string
  | Host_kill_container of string  (** → {!Host_ack}. *)
  | Host_fence  (** → {!Host_ack}. *)
  | Host_ack

type t

val create :
  Netsim.Network.t ->
  fabric:Netsim.Node.t ->
  string ->
  t
(** [create net ~fabric name] creates the host, joins it to the fabric
    node, and starts the lease watchdog: a host that hears no controller
    heartbeat for 3 s fences itself. *)

val name : t -> string
val node : t -> Netsim.Node.t
val addr : t -> Netsim.Addr.t
(** The host's fabric-facing address. *)

val uplink : t -> Netsim.Link.t

val create_container :
  t -> ?boot_span:Sim.Time.span -> string -> Container.t
(** Creates (but does not boot) a container with its vEth pair; it boots
    in [boot_span] (default 1 s). The container id must be unique on the
    host. *)

val containers : t -> Container.t list
val find_container : t -> string -> Container.t option

val memory_used_mb : t -> float
val cpu_used_pct : t -> float
(** Sums over Running containers (Figure 6(d)). *)

(** {1 Failures} *)

val fail : t -> unit
(** Host-machine failure (E3): the host and every container go silent. *)

val recover : t -> unit
(** Power restored: the host node comes back; containers stay dead and
    the host stays fenced until {!reset} (the paper's manual-reset
    rule). *)

val network_fail : t -> unit
(** Host-network failure (E5): the fabric uplink goes down; containers
    keep running locally. *)

val network_recover : t -> unit

val is_up : t -> bool
val is_fenced : t -> bool

val fence : t -> unit
(** Kill all container networking now (controller-ordered or
    lease-expiry). *)

val reset : t -> unit
(** Manual reset: clears the fence and re-arms the lease. Containers must
    be re-created/re-booted by the deployment layer. *)

val heartbeat_received : t -> unit
(** Called by the ["health"] responder; feeds the lease watchdog. Wired
    automatically — exposed for tests. *)

val last_heartbeat : t -> Sim.Time.t
