(** Fleet assembly: regions, per-region stores, replicated services.

    A fleet topology is an ordinary {!Tensor.Deploy} deployment scaled
    out: [hosts] host machines split across [regions] regions (each with
    its own store server on the fabric), and [instances] TENSOR
    instances grouped into services of two replicas — both
    replicas in the same region, always on distinct hosts. Every
    instance peers with its own external AS over one VRF, so the whole
    single-instance NSR machinery (BFD relay, hold-ACK replication,
    migration) runs unchanged at fleet scale.

    Placement for every subsequent migration goes through
    {!Tensor.Deploy.set_service_picker} →
    {!Orch.Controller.pick_host}: region-affine, replica-anti-affine,
    deferring gracefully when no in-region host is healthy. *)

val local_asn : int

val region_name : int -> string
(** ["r0"], ["r1"], … *)

val peer_name : int -> string
(** Node name of instance [i]'s external AS — the peer-visible surface
    the checkers watch. *)

val normalize_instances : int -> int
(** Rounds up to a multiple of two, the replicas per service (minimum
    one full service):
    a single-replica service would turn any host kill into a spurious
    [fleet_slo] "region lost all replicas" violation. *)

val ack_deadline_s : float
(** The shed deadline fleet instances run with (5% of the
    90 s hold time) — feed it to
    {!Monitor.Checker.config.ack_deadline_s} when a campaign includes a
    regional store outage. *)

type instance = {
  id : string;  (** ["s007.1"] — also the Deploy/controller service id. *)
  service : string;  (** Replica group, ["s007"]. *)
  region : int;
  svc : Tensor.Deploy.service;
  peer : Tensor.Deploy.peer_as;
  mutable shed_at : Sim.Time.t option;
      (** Set while the region's store outage has this instance in
          degraded pass-through (maintained by the store probers). *)
}

type region = {
  rname : string;
  rhosts : int array;  (** Indices into [dep.hosts]. *)
  rstore : Store.Server.t;
  rstore_addr : Netsim.Addr.t;
}

type t = {
  dep : Tensor.Deploy.t;
  regions : region array;
  instances : instance array;
}

val build :
  seed:int ->
  hosts:int ->
  regions:int ->
  instances:int ->
  unit ->
  t
(** Builds the deployment, regions, per-region stores and all instances
    (emitting one [Fleet_placed] per instance), and installs the
    region-aware placement hook. Raises [Invalid_argument] when a region
    would get fewer than two hosts. *)

val instance_host : instance -> string
(** Host name of the instance's current primary container. *)

val seed_routes : t -> unit
(** Originates two disjoint prefixes at every peer AS and every
    instance. *)

val wait_all_established : t -> bool
(** Runs the engine until every instance's session is Established
    (false after 120 s of simulated time). *)

val arm_store_probers : t -> unit
(** One prober per region: on a store down-edge every Running instance
    of the region emits [Fleet_degraded]; on the up-edge each sheds
    instance emits [Fleet_rearmed] with its degraded dwell. *)
