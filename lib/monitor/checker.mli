(** Streaming runtime verification of the NSR invariants.

    [install] subscribes a checker set to the telemetry firehose
    ({!Telemetry.Bus.subscribe}); every entry is folded, synchronously
    and in global-sequence order, into per-invariant state. The nine
    checkers mirror the paper's correctness claims:

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
      entry (checked at {!finalize}).
    - [degraded_mode_exclusion] — the degraded-store contract: no ACK is
      held past the configured deadline (an [Ack_released]/[Ack_shed]
      with [held_s] beyond [ack_deadline_s] plus slack, or a
      [Degraded_enter] arriving that late, is a violation), nothing is
      held while degraded, and no configured peer sees a [Session_down]
      while any connection is in degraded pass-through — suspending NSR
      must keep the session alive, or it bought nothing.

    [Queue_dropped] events are informational only: the no-consumer drop
    of a dying instance's FIN/RST is load-bearing NSR behaviour (see
    {!Netfilter}). *)

type violation = {
  checker : string;
  event_seq : int;  (** Bus sequence number of the offending entry. *)
  span : Telemetry.Span.id;
      (** Ambient causal span when the entry was emitted;
          {!Telemetry.Span.none} for end-of-run checks. *)
  at : Sim.Time.t;
  detail : string;
}

type result = Pass | Violations of violation list

type config = {
  peers : string list;
      (** Node names of remote-AS routers: events at these nodes are the
          peer-visible surface. *)
  bfd_tolerance : float;
      (** Fractional slack on the BFD detection bound (default 0.25). *)
  ack_deadline_s : float;
      (** The held-ACK degrade deadline, in seconds; [0.] (default)
          leaves [degraded_mode_exclusion]'s deadline discipline unarmed
          (deployments without degraded mode hold ACKs indefinitely by
          design). Checked with 10% + 100 ms slack for watchdog
          granularity. *)
}

val default_config : config

val names : string list
(** The ten checker names, in report order. The tenth, [fleet_slo],
    watches fleet campaigns: no region may ever lose all replicas of a
    service, rolling-upgrade drains may never exceed the wave's
    concurrency bound, and every instance that shed into degraded mode
    must have re-armed by end of run. *)

type t

val install : ?cfg:config -> unit -> t
(** Subscribes to the firehose. Entries emitted before [install] (or
    while {!Telemetry.Gate} is off) are not observed. *)

val note_primary : t -> service:string -> container:string -> unit
(** Seeds (or updates) the current primary of [service], so the first
    [Replica_promoted] has a predecessor to check against. *)

val finalize : t -> (string * result) list
(** Unsubscribes, runs the end-of-run checks (queue drain, RIB
    convergence) and returns every checker's verdict, in {!names}
    order. Idempotent state: call once per run. *)

val events_seen : t -> int

val queue_drop_events : t -> int
(** Count of informational [Queue_dropped] entries observed. *)

val outstanding_acks : t -> int
(** The [queue_drain] ledger's open balance over every connection (held
    minus released, dropped and shed), kept as a running count: O(1). *)
