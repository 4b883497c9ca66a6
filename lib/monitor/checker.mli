(** Runtime verification of the NSR invariants, as one pure function
    of a run's record.

    {!check} folds a run's telemetry entries, in global-sequence order,
    into per-invariant state and returns a verdict per checker; like
    every other reader of a run, it reads the bus log after the fact
    ({!Telemetry.Bus.events}), so a verdict can be re-derived from the
    entries alone. The ten checkers mirror the paper's correctness
    claims:

    - [no_peer_visible_reset] — no [Session_down] at a configured peer
      node: the remote AS never sees the BGP session reset (§1, Table 1's
      "ZERO downtime" column).
    - [tcp_stream_continuity] — a restored connection's [Repair_import]
      never resumes beyond the durable receive watermark, and its send
      window is internally consistent (§3.2's byte-stream continuity).
    - [held_ack_safety] — an [Ack_released] never exceeds the connection's
      last [Wm_durable]: ACKs only reach the peer after the bytes they
      cover are replicated (§3.2's hold-ACK rule).
    - [bfd_detection_bound] — a [Bfd_down] fires within
      interval x multiplier (plus tolerance): liveness of detection.
    - [rib_convergence] — all [Rib_snapshot] digests within a comparison
      group agree at end of run (the restored RIB equals what the peer
      advertised).
    - [split_brain_exclusion] — a [Replica_promoted] is only legal once
      the previous primary is fenced ([Container_state] stopped/failed)
      or its host is declared dead (§3.3's fence-before-promote).
    - [route_flap_absence] — no [Routes_withdrawn] delivered at a peer
      node: migrations never flap routes on the wire (§4.4).
    - [queue_drain] — every [Ack_held] is eventually [Ack_released],
      accounted [Ack_dropped], or flushed as [Ack_shed] at degraded-mode
      entry (checked once the fold reaches the last entry).
    - [degraded_mode_exclusion] — the degraded-store contract: no ACK is
      held past the configured deadline (an [Ack_released]/[Ack_shed]
      with [held_s] beyond [ack_deadline_s] plus slack, or a
      [Degraded_enter] arriving that late, is a violation), nothing is
      held while degraded, and no configured peer sees a [Session_down]
      while any connection is in degraded pass-through — suspending NSR
      must keep the session alive, or it bought nothing.
    - [fleet_slo] — the fleet campaign's service-level objective: no
      service placed by [Fleet_placed] loses its last running replica,
      concurrent upgrade drains never exceed their wave's bound, and
      every [Fleet_degraded] instance is [Fleet_rearmed] by the end of
      the run.

    [Queue_dropped] events are informational only: the no-consumer drop
    of a dying instance's FIN/RST is load-bearing NSR behaviour (see
    {!Netfilter}). *)

type violation = {
  checker : string;
  event_seq : int;  (** Bus sequence number of the offending entry. *)
  at : Sim.Time.t;
  detail : string;
}

type result = Pass | Violations of violation list

type config = {
  peers : string list;
      (** Node names of remote-AS routers: events at these nodes are the
          peer-visible surface. *)
  ack_deadline_s : float;
      (** The held-ACK degrade deadline, in seconds; [0.] leaves
          [degraded_mode_exclusion]'s deadline discipline unarmed
          (deployments without degraded mode hold ACKs indefinitely by
          design). Checked with 10% + 100 ms slack for watchdog
          granularity. *)
}

val check :
  config ->
  primaries:(string * string) list ->
  Telemetry.Bus.entry list ->
  (string * result) list
(** [check cfg ~primaries entries] is every checker's verdict on the run
    whose bus log is [entries], in a fixed order. [primaries] seeds the
    current primary container of each service ([(service, container)]),
    as of before the first entry, so the first [Replica_promoted] has a
    predecessor to check against. *)

val held_acks : Telemetry.Bus.entry list -> int
(** The [queue_drain] ledger's balance over [entries], summed over every
    connection: one per [Ack_held], minus one per [Ack_released],
    [Ack_dropped] or [Ack_shed]. Additive, so a poller folds only the
    entries appended since its last poll. *)
