(** Behaviour profiles of the compared BGP implementations (§4.2) and the
    baseline (non-NSR) recovery model (§4.3).

    The paper compares TENSOR against FRRouting, GoBGP and BIRD. All four
    run the {e same} protocol engine here ({!Bgp.Speaker}); the profiles
    differ only in the characteristics the paper attributes to them:

    - per-update processing cost (Figure 6(a): FRR fastest; GoBGP and
      BIRD similar; TENSOR slowest because of replication bookkeeping and
      tcp_queue read-backs);
    - whether update packing is implemented (GoBGP lacks it — the 5×
      factor of Figure 6(c));
    - per-peer cloning cost of packed messages (BIRD degrades beyond
      ~600 peers, where TENSOR overtakes it).

    Costs are calibrated so the regenerated Figure 6 curves have the
    paper's ordering and crossovers; absolute values are model constants,
    not claims about the real daemons.

    The {!recovery} model captures the baselines' manual failure handling
    for Table 1: failure detection via hold/BFD timers, an operator
    rebooting processes or machines, then TCP reconnection and a full
    table re-sync. *)

val frr : Bgp.Speaker.profile
val gobgp : Bgp.Speaker.profile
val bird : Bgp.Speaker.profile

val tensor : Bgp.Speaker.profile
(** The speaker-level profile of TENSOR's BGP process. Replication costs
    are {e not} in the profile — they come from the real store
    interactions of {!Replicator}. *)

(** {1 Baseline manual-recovery model (Table 1)} *)

type recovery = {
  detect : Sim.Time.span;
      (** Failure noticed (hold timer, monitoring page, BFD). *)
  human_initiate : Sim.Time.span;
      (** Operator reaction before the reboot/repair starts. *)
  repair : Sim.Time.span;  (** Reboot of process or machine, or link fix. *)
  reconnect : Sim.Time.span;  (** TCP reconnection + BGP re-establishment. *)
  resync : Sim.Time.span;  (** Route re-learning at average workload. *)
}

val recovery_for : Orch.Controller.failure_kind -> recovery
(** The paper's reported baseline behaviour per failure class
    (Table 1's bracketed numbers): application ≈ 30 s end to end, host
    machine ≈ 240 s, host network ≈ 25 s (wait for recovery, no reboot).
    Container failures have no baseline equivalent. *)

val total : recovery -> Sim.Time.span
