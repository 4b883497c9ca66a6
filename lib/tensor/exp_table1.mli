(** Table 1: failure recovery comparison.

    For each failure class (application, container, host machine, host
    network) a fresh full deployment is built, routes are exchanged, the
    failure is injected, and each column is a {!Telemetry.Phase} of the
    captured bus entries:

    - detection ([detect]): injection → failure localized;
    - initiation ([initiate]): localization → migration started;
    - migration ([migrate]): start → backup resumed (boot + state
      download + resume);
    - TCP recovery ([tcp_replay]): state caught up → the resumed
      connection fully re-synchronized, the phase the health report
      budgets;
    - total ([failover]): injection → re-synchronized.

    TENSOR's times are internal (the peer observes {e zero} link
    downtime, which the experiment asserts by monitoring the peer's
    session and routing table). The baselines' numbers come from the
    {!Baseline.recovery_for} manual-recovery model, where the total {e
    is} link downtime. *)

type timeline = {
  kind : Orch.Controller.failure_kind;
  frequency_pct : int;  (** The paper's observed frequency mix. *)
  detect_s : float;
  initiate_s : float;
  migrate_s : float;
  tcp_s : float;
  total_s : float;
  peer_session_drops : int;  (** Must be 0: zero link downtime. *)
  peer_routes_lost : int;  (** Must be 0. *)
  baseline_total_s : float;  (** Link downtime without NSR. *)
}

val episode :
  ?store_resilient:bool ->
  ?degrade_frac:float ->
  ?backup_mode:[ `Cold | `Preheat ] ->
  id:string ->
  unit ->
  Deploy.t * Deploy.peering * Deploy.service
(** The episode every Table 1 row, [check failover] and the preheat
    ablation run up to the failure: a fresh {!Deploy.build}, the
    {!Deploy.standard_peering}, a service [id] deployed on it (the three
    options are {!Deploy.deploy_service}'s), the session established,
    300 routes in and 100 out, then 10 s of settling. Raises [Failure]
    when the session does not establish. *)

val run : ?kinds:Orch.Controller.failure_kind list -> unit -> timeline list
(** One episode per failure kind (default: all four rows of Table 1).
    [kinds] is a test seam: tests run a subset to save time. *)

val print : timeline list -> unit
