(** The TENSOR application running inside one container.

    One container hosts one BGP process and one BFD process (§3.2.1);
    each VRF of the pair corresponds to one peering AS. The app wires
    together, on the container's node: a TCP stack with a Netfilter
    OUTPUT chain, a {!Bgp.Speaker} with TENSOR's profile and replication
    hooks, one {!Replicator} per VRF/session, one {!Bfd} session per VRF,
    a store client, and the in-container application monitor that reports
    BGP/BFD process failures to the controller (E1).

    Two bootstrap modes exist:
    - [Fresh]: ordinary session establishment; on establishment the app
      writes the session metadata record and the BFD discriminators to
      the store.
    - [Recover]: the NSR path. State is downloaded from the store (meta,
      watermark, outbound records, unapplied messages, routing-table
      checkpoint, BFD discriminators); the TCP connection and BGP session
      are resumed without any wire handshake; unapplied updates are
      replayed; BFD resumes Up with the replicated discriminators. A
      modelled 1 s restore (TCP_REPAIR writes and the verification probe
      of the production system) precedes the first post-recovery
      KEEPALIVE. *)

type vrf_spec = {
  vrf : string;
  vip : Netsim.Addr.t;  (** The service address that migrates. *)
  peer_addr : Netsim.Addr.t;
  peer_asn : int option;
  passive : bool;
  run_bfd : bool;
  ibgp_peers : (Netsim.Addr.t * bool) list;
      (** Additional iBGP sessions in this VRF — [(address, passive)].
          This is how a {e joint BGP container} (§3.2.4) synchronizes
          global routing information between otherwise-isolated client
          containers. iBGP sessions are cluster-internal and are not
          NSR-replicated: a joint container resynchronizes from its
          dependent containers after any restart. *)
}

val vrf_spec :
  vrf:string ->
  vip:Netsim.Addr.t ->
  peer_addr:Netsim.Addr.t ->
  ?peer_asn:int ->
  ?passive:bool ->
  ?run_bfd:bool ->
  ?ibgp_peers:(Netsim.Addr.t * bool) list ->
  unit ->
  vrf_spec
(** Defaults: active opener, BFD on, no iBGP peers. Sessions run
    without routing policy. *)

type config = {
  service_id : string;
  store_addr : Netsim.Addr.t;
  store_replica : Netsim.Addr.t option;
      (** Failover target for the store client (default none). *)
  store_retry : bool;
      (** Use a resilient store client (idempotent retried ops) even
          without a replica. Either this or [store_replica] switches the
          client out of the plain one-attempt mode. *)
  controller_addr : Netsim.Addr.t option;
  local_asn : int;
  degrade_frac : float;
      (** Degraded-store survival: fraction of the {e negotiated} hold
          time after which unachievable durability (a held ACK or a
          blocked control-lane write aging past the deadline) flips the
          session's replicator into degraded pass-through instead of
          letting the peer's hold timer fire. [0.] (the default)
          disables the mechanism — the replicator then blocks
          indefinitely, the pre-existing behaviour. Once the store heals
          the app re-arms NSR under a fresh epoch, audits Adj-RIB-Out
          via the resync path and rewrites the rib| checkpoint. *)
  vrfs : vrf_spec list;
  replicate : bool;  (** Ablation: disable replication entirely. *)
  ack_hold : bool;  (** Ablation: replicate but never delay ACKs. *)
}

val config :
  service_id:string ->
  store_addr:Netsim.Addr.t ->
  ?store_replica:Netsim.Addr.t ->
  ?store_retry:bool ->
  ?controller_addr:Netsim.Addr.t ->
  local_asn:int ->
  ?degrade_frac:float ->
  ?replicate:bool ->
  ?ack_hold:bool ->
  vrf_spec list ->
  config
(** Raises [Invalid_argument] unless [degrade_frac] is in [\[0, 1)]. *)

type mode = Fresh | Recover

type t

val install : Orch.Container.t -> ?mode:mode -> config -> t
(** Registers the bootstrap on the container's on_running hook (so it
    runs at every (re)boot). *)

val container : t -> Orch.Container.t
val speaker : t -> Bgp.Speaker.t option
(** Available once the container runs. *)

val replicator : t -> vrf:string -> Replicator.t option
val bfd_session : t -> vrf:string -> Bfd.session option
val session_established : t -> vrf:string -> bool

val on_bfd_up : t -> (vrf:string -> Bfd.session -> unit) -> unit
(** Fired when a VRF's BFD reaches Up (fresh mode) or resumes (recovery
    mode) — the deployment layer registers the agent relay here. *)

val on_recovered : t -> (unit -> unit) -> unit
(** Recovery mode: all VRFs have been resumed (sessions live, RIB
    restored, replay done). *)

val on_tcp_synced : t -> (vrf:string -> unit) -> unit
(** Post-recovery: the resumed connection's send stream is fully
    acknowledged by the peer — the "TCP recovery" instant of Table 1. *)

val freeze_for_migration : t -> (unit -> unit) -> unit
(** Planned maintenance (§4.4 "transparent system updates at any time"):
    freeze the TCP stack (the peer's in-flight data goes unacknowledged —
    NSR-safe, it will retransmit to the successor), flush every pending
    replication write, then invoke the callback. After it fires, the
    store holds a complete, quiescent snapshot and a backup can resume
    the sessions with nothing in doubt. *)

val crash_bgp : t -> unit
(** Application-failure injection (E1): the BGP process dies. Sessions
    stop silently (no NOTIFICATION — a crash sends nothing), and the
    in-container monitor reports to the controller. *)

val halt : t -> unit
(** The fence's view of {!crash_bgp}: the process is killed with the
    container, so the stack freezes and replication stops, but nothing
    is reported — a dead process cannot speak. Idempotent, and a no-op
    after {!crash_bgp} or {!freeze_for_migration}. Held ACKs flush as
    [Ack_dropped] so the end-of-run queue balance still closes. *)

val routes : t -> vrf:string -> int
(** Loc-RIB size of a VRF (0 before boot). *)
