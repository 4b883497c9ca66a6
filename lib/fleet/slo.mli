(** Fleet-wide SLO report of one run, folded from its bus entries.

    {!of_entries} reads: per-region availability (instance-up seconds
    over the observation horizon), the failover-time distribution,
    degraded-instance accounting ([Fleet_degraded]/[Fleet_rearmed]),
    rolling-upgrade progress, and deferred-migration counts. A failover
    runs from controller detection to migration done: the [initiate]
    and [migrate] phases of {!Telemetry.Phase} together, per instance a
    [Fleet_placed] entry named. That differs from [Phase]'s [failover],
    which starts at [Failure_injected]. *)

type region_report = {
  rr_name : string;
  rr_instances : int;
  rr_availability : float;  (** Mean instance uptime over the horizon. *)
  rr_degraded_now : int;
  rr_degraded_peak : int;
  rr_degraded_total : int;
}

type report = {
  horizon_s : float;
  region_rows : region_report list;  (** Sorted by region name. *)
  failover_s : float list;  (** Ascending. *)
  upgrades_started : int;
  upgrades_done : int;
  upgrade_inflight_peak : int;
  deferred : int;
}

val of_entries : Telemetry.Bus.entry list -> report
(** The report of [entries] (in [seq] order, as
    {!Telemetry.Control.capture} returns them). The horizon runs from
    the first entry to the last, and uptime intervals still open at the
    last entry close there. *)

val percentile : float list -> float -> float
(** [percentile sorted p] with [p] in [0, 1]; 0. on the empty list. *)

val to_text : report -> string
val to_json : report -> string
