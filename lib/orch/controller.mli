(** The TKE-style controller (§3.2.2, §3.3.3).

    Logically centralized: it holds the mapping from managed BGP
    containers to hosts, runs the gRPC heartbeat channels, localizes
    failures using multiple independent measurements, and drives NSR
    migration through a pluggable migrator (installed by the TENSOR
    layer).

    Failure localization implements the paper's decision procedure:

    - {e application failures} (E1) are reported instantly by the
      in-container monitor via the ["report"] RPC service;
    - {e container failures} (E2/E4) are detected by a gRPC heartbeat
      miss cross-checked against the host's process monitor
      ([Host_check_container]);
    - {e host machine/network failures} (E3/E5) require every
      measurement to fail — the controller's own probe, the agent's IP
      SLA, and a second host's IP SLA — and are confirmed by a timer
      (default 3 s) before migration, so transient jitter never triggers
      a move. Once a host is declared failed it is fenced and quarantined
      until a manual reset.

    Every step is emitted on the telemetry bus as an [Orch] event —
    [Failure_detected], [Migration_initiated], [Migration_done], plus
    [Host_suspect] / [Host_failed] for host-level localization — the raw
    material of Table 1. *)

type failure_kind =
  | App_failure
  | Container_failure
  | Host_failure
  | Host_network_failure

val pp_failure_kind : Format.formatter -> failure_kind -> unit

type Netsim.Rpc.body += Report_app_failure of string  (** container id *)

type t

val create : Netsim.Network.t -> fabric:Netsim.Node.t -> string -> t

val node : t -> Netsim.Node.t
val addr : t -> Netsim.Addr.t

val register_host : t -> Host.t -> unit
(** Starts heartbeating the host (which also feeds its fencing lease).
    {!set_host_region} tags it for region-aware placement
    ({!pick_host}). *)

val set_host_region : t -> host:string -> region:string -> unit
(** (Re)assigns a registered host to a region. Unknown hosts are
    ignored. *)

val pick_host :
  t -> ?region:string -> ?avoid:string list -> unit -> Host.t option
(** Region-aware anti-affinity placement: the least-loaded healthy host
    (up, unfenced, not quarantined, probe phase healthy), restricted to
    [region] when given and never one of [avoid] (failed host, hosts
    carrying sibling replicas). Host name breaks load ties, so the
    choice is deterministic. [None] when no host qualifies — callers
    must defer (emitting [Migration_deferred]) rather than thrash. *)

val failure_migrations_active : t -> int
(** Failure-triggered migrations currently in flight or deferred
    (planned migrations are not counted). The fleet upgrade-wave
    planner pauses while this is non-zero. *)

val register_agent : t -> Agent.t -> unit
(** The agent used for IP SLA cross-checks. *)

val register_store : t -> addr:Netsim.Addr.t -> unit
(** Starts probing the replicated store's ["kv_health"] service on the
    heartbeat cadence. While the store is unreachable the controller
    distinguishes store-down from instance-dead: migrations are deferred
    (emitting [Migration_deferred]) rather than initiated, because a
    takeover without a readable store would hand the replacement an
    empty state and reset the peer. [Store_unreachable] /
    [Store_recovered] events mark the outage window. *)

val set_migrator :
  t ->
  (reason:failure_kind ->
  id:string ->
  failed:Container.t ->
  done_:(Container.t -> unit) ->
  unit) ->
  unit
(** Installs the migration executor (the TENSOR layer). The executor
    must eventually call [done_ new_container]; the controller then
    resumes monitoring on the replacement instance. *)

val manage : t -> id:string -> Container.t -> unit
(** Puts a container under heartbeat monitoring and migration
    management. *)

val begin_planned : t -> id:string -> unit
(** Suspends failure handling for a service while a planned (proactive)
    migration runs, so the deliberate death of the old primary is not
    mistaken for a failure. *)

val end_planned : t -> id:string -> Container.t -> unit
(** Completes a planned migration: monitoring resumes on the replacement
    instance. *)

val quarantined : t -> string list
(** Names of hosts declared failed and awaiting manual reset. *)

val release_quarantine : t -> Host.t -> unit
(** Manual reset: {!Host.reset} plus removal from the quarantine list. *)

val report_endpoint_service : string
(** ["report"] — where in-container monitors send
    {!Report_app_failure}. *)

(** {1 Test-only} *)

val managed_container : t -> id:string -> Container.t option
(** Inspection: the container the controller manages under [id], so
    tests check which one a migration left in charge. *)
