(** Containers — TENSOR's minimum operation unit (§3.2).

    A container is a lightweight virtualized environment holding one BGP
    process and one BFD process. In the simulator each container owns a
    {!Netsim.Node.t} joined to its host by a vEth-pair link; the host
    forwards between the fabric and the vEth, so the containerization is
    transparent to everything outside the host (§3.2.3).

    The container models boot time (the paper's ~1 s container start,
    versus ~20 min monolithic configuration loading, §3.2.1), service
    addresses (the VRF addresses that migrate with the BGP process), a
    resource footprint (memory/CPU — Figure 6(d)), and failure states for
    the injection experiments of Table 1. Containers are created through
    {!Host.create_container}. *)

type state = Created | Booting | Running | Failed | Stopped

val pp_state : Format.formatter -> state -> unit

type t

val id : t -> string
val node : t -> Netsim.Node.t
(** The container's network namespace. *)

val host_name : t -> string
val state : t -> state

val veth_addr : t -> Netsim.Addr.t
(** Container-side address of the vEth pair. *)

val boot : t -> unit
(** Created/Stopped/Failed → Booting → (after the boot span) Running.
    Registers the gRPC ["health"] responder and fires the on_running
    callbacks. Idempotent while Booting/Running. *)

val on_running : t -> (t -> unit) -> unit
(** Application bootstrap hooks, run (in registration order) each time
    the container reaches Running. *)

val boot_span : t -> Sim.Time.span

val assign_service_addr : t -> Netsim.Addr.t -> unit
(** Adds a service (VRF) address to the container and installs the host
    route towards the vEth. The fabric-side route is the deployment's
    responsibility. *)

val fail : t -> unit
(** Container failure (E2): the node goes silent, state becomes Failed. *)

val stop : t -> unit
(** Administrative stop: node silent, state Stopped. *)

val kill_network : t -> unit
(** Virtual-network failure (E4): processes keep running (timers fire)
    but the node can no longer send or receive. Also the fencing
    primitive used against split-brain. *)

val set_resources : t -> mem_mb:float -> cpu_pct:float -> unit
(** Declared footprint, accounted by the host while Running. *)

val mem_mb : t -> float
val cpu_pct : t -> float

(** Used by {!Host}; not part of the public workflow. *)
val internal_make :
  id:string ->
  host_name:string ->
  node:Netsim.Node.t ->
  veth_addr:Netsim.Addr.t ->
  host_route:(Netsim.Addr.t -> unit) ->
  boot_span:Sim.Time.span ->
  t
