(** Cluster assembly: the production topology of Figure 3, in one call.

    A deployment builds the forwarding fabric, host machines, the agent
    server, the controller, and the replicated store, then lets callers
    attach external peering ASes and deploy TENSOR services (primary
    containers with designated backup hosts). It installs the NSR
    migrator on the controller:

    on failure → (controller localizes per §3.3.3) → kill/fence the old
    instance → create the backup container (warm boot for
    application/container failures, cold boot for host-level failures) →
    recover TCP/BGP/BFD state from the store → re-route the service
    addresses → resume — all while the agent's BFD relay keeps the remote
    AS convinced nothing happened. *)

type t = {
  eng : Sim.Engine.t;
  net : Netsim.Network.t;
  fabric : Netsim.Node.t;
  hosts : Orch.Host.t array;
  agent : Orch.Agent.t;
  ctrl : Orch.Controller.t;
  store_server : Store.Server.t;
  store_addr : Netsim.Addr.t;
  store_replica_server : Store.Server.t option;
      (** Present when [build ~store_replica:true]: the synchronous
          replica, exposed so chaos scenarios can crash/promote it. *)
  mutable picker :
    (service_id:string -> avoid:string list -> Orch.Host.t option) option;
      (** Placement hook; install via {!set_service_picker}. *)
}

val build :
  ?seed:int ->
  ?hosts:int ->
  ?store_delay:Sim.Time.span ->
  ?store_replica:bool ->
  unit ->
  t
(** Defaults: 3 hosts and a local store (100 µs away) with the
    calibrated store cost model. A backup container boots in 1 s after
    an app or container failure and cold-starts in 4.4 s (image
    distribution and scheduling on a non-preheated host) after a
    host-level one. [store_delay]
    moves the store further (the §5 remote-replication discussion);
    [store_replica] (default false) attaches a synchronous replica on a
    second store server — the paper's "Redis set up on multiple local
    servers". Migration
    milestones ([Failure_injected], [Tcp_synced] per VRF, the
    controller's [Orch] events) go to the telemetry bus; read them with
    {!Telemetry.Control.capture} and pair them with
    {!Telemetry.Phase.of_entries}. *)

val set_service_picker :
  t -> (service_id:string -> avoid:string list -> Orch.Host.t option) -> unit
(** Installs a placement hook consulted whenever a migration (failure or
    planned) or standby provisioning needs a host for the next instance;
    [avoid] always contains the outgoing instance's host. Returning
    [None] makes the migrator defer gracefully: it emits
    [Migration_deferred] with reason ["no-healthy-host"] and re-asks
    every second — no container is created, nothing thrashes — until the
    hook yields a host or a newer migration supersedes the attempt. The
    fleet layer installs {!Orch.Controller.pick_host} here with
    region-affinity and replica anti-affinity baked in. Without a hook,
    placement falls back to the service's round-robin backup index. *)

(** {1 External peering ASes} *)

type peer_as = {
  pa_name : string;
  pa_node : Netsim.Node.t;
  pa_addr : Netsim.Addr.t;
  pa_speaker : Bgp.Speaker.t;
  pa_asn : int;
}

val speaker_leaf :
  Netsim.Network.t ->
  fabric:Netsim.Node.t ->
  ?link_delay:Sim.Time.span ->
  asn:int ->
  string ->
  peer_as
(** The one speaker on a fabric leaf: a machine [name] hung off [fabric]
    ({!Netsim.Network.add_leaf}, [link_delay] default 200 µs), its TCP
    stack, and an FRRouting-profile speaker of AS [asn] whose router id
    is the leaf's address. It has no peers yet. *)

val add_peer_as :
  t ->
  ?link_delay:Sim.Time.span ->
  asn:int ->
  string ->
  peer_as
(** A remote AS border router on the deployment's fabric
    ({!speaker_leaf}), ready to accept sessions from TENSOR services. *)

val peer_expects :
  peer_as -> vrf:string -> vip:Netsim.Addr.t -> local_asn:int -> Bgp.Speaker.peer
(** Configures the peer side of a session: a passive peer entry for the
    given service address, plus the peer's own BFD responder. Returns the
    peer handle for inspection. *)

type peering = {
  peer : peer_as;
  session : Bgp.Speaker.peer;  (** The peer AS's side of the session. *)
  spec : App.vrf_spec;  (** The service's side, for {!deploy_service}. *)
}

val local_asn : int
(** 64900, the AS every TENSOR service here speaks as. *)

val peering :
  t ->
  ?link_delay:Sim.Time.span ->
  asn:int ->
  vrf:string ->
  vip:Netsim.Addr.t ->
  string ->
  peering
(** One external peering of a service, the piece of Figure 3 every
    scenario builds: {!add_peer_as} [name], {!peer_expects} the service
    at [vip] as {!local_asn}, and the service's VRF spec aimed back at
    the new AS. *)

val standard_peering : t -> peering
(** The single peering of Table 1, the [check] scenarios, the ablations,
    Figure 6(a/b) and the examples: AS 65010 on node ["peerAS"], in VRF
    ["v0"] of the standard service VIP. *)

(** {1 TENSOR services} *)

type service

val deploy_service :
  t ->
  ?primary_host:int ->
  ?backup_host:int ->
  ?backup_mode:[ `Cold | `Preheat ] ->
  ?ack_hold:bool ->
  ?store_resilient:bool ->
  ?degrade_frac:float ->
  ?store_addr:Netsim.Addr.t ->
  id:string ->
  local_asn:int ->
  App.vrf_spec list ->
  service
(** Creates the primary container on [primary_host] (default 0), routes
    the VIPs, installs the app, registers the service with the controller
    and the BFD relays with the agent. [backup_host] (default 1) receives
    migrations.

    [store_resilient] (default false) gives the app a retrying store
    client, failing over to the deployment's replica when one was built
    ({!build}'s [store_replica]). [degrade_frac] (default 0., disabled)
    is forwarded to {!App.config}: the fraction of the negotiated hold
    time after which an unreachable store flips replication into degraded
    pass-through instead of letting the peer's hold timer fire.

    [backup_mode] (default [`Cold]) selects §3.3.2's energy/latency
    trade-off: [`Cold] creates and boots the backup container at
    migration time; [`Preheat] keeps an idle standby container booted on
    the backup host, so migration skips the boot and only downloads state
    from the store. A consumed standby is replaced automatically.

    [store_addr] points this service at a different store than the
    deployment's default — fleet topologies give every region its own
    store server so a regional outage only sheds that region. *)

val service_app : service -> App.t
(** The app of the current primary instance. *)

val service_container : service -> Orch.Container.t

val wait_established : t -> service -> unit -> bool
(** Runs the engine until every VRF session of the service is
    Established (true) or 30 s of simulated time elapse (false). *)

val planned_migration :
  t -> ?done_:(Orch.Container.t -> unit) -> service -> unit
(** Proactive maintenance (§4.4): freeze the healthy primary, flush its
    replication pipeline, then run the ordinary NSR migration. The remote
    AS observes nothing — no graceful-restart window, no frozen routing
    policies, no downtime — which is the operational property that lets
    the paper's deployment upgrade software at any hour. [done_] fires
    with the replacement container once the controller has resumed
    monitoring on it (the fleet upgrade-wave planner chains drains on
    it). *)

(** {1 Failure injection (Table 1 scenarios)} *)

val inject_failure : t -> service -> Orch.Controller.failure_kind -> unit
(** Emits [Failure_injected], which opens the ["failover"]
    {!Telemetry.Phase}, then fails the service's current primary: its
    BGP app, its container, its host, or its host's network (a partition
    that leaves the host running). *)

val service_routes : service -> vrf:string -> int
