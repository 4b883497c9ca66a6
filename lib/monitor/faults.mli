(** Hidden fault flags for mutation-testing the runtime checkers.

    Every flag corresponds to exactly one {!Checker} and is read at one
    surgical point in the product code; all flags default to off, and
    nothing in a normal run touches them. The mutation tests in
    [test/test_monitor.ml] seed each fault and assert that it trips its
    checker — and only its checker — which is what proves the checkers
    are not vacuously green. *)

val peer_reset : bool ref
(** [no_peer_visible_reset]: shortly after a resume, bounce the restored
    session with a Cease NOTIFICATION. Auto-reconnect heals the tables,
    so the only surviving symptom is the peer-visible reset.
    Self-clearing after the first bounce. *)

val repair_gap : bool ref
(** [tcp_stream_continuity]: report [rcv_nxt + 1] in the
    [Repair_import] event — a one-byte receive-stream gap. *)

val early_ack_release : bool ref
(** [held_ack_safety]: release one held ACK beyond the durable
    replication watermark. *)

val bfd_slow_detect : bool ref
(** [bfd_detection_bound]: double the armed detection window while the
    advertised interval × multiplier stays nominal. *)

val skip_rib_restore : bool ref
(** [rib_convergence]: skip the RIB checkpoint scan during bootstrap
    recovery, so the promoted replica starts from an empty table. *)

val no_fence : bool ref
(** [split_brain_exclusion]: promote the replica without stopping the
    old primary container first. *)

val flap_on_migration : bool ref
(** [route_flap_absence]: withdraw and immediately re-announce one
    originated prefix after a planned migration completes. *)

val leak_held_acks : bool ref
(** [queue_drain]: silently swallow one ready-to-release held ACK
    (no release event, no reinjection) — the peer's cumulative ACKs
    hide it, but the held/released balance no longer closes.
    Self-clearing after the first leak. *)

val late_degrade : bool ref
(** [degraded_mode_exclusion]: arm the replicator's degrade watchdog at
    twice the configured deadline, so during a store outage held ACKs
    (and the shed that eventually frees them) age past the bound the
    session negotiated — exactly the hold-timer exposure the checker
    exists to catch. *)

val exceed_wave_bound : bool ref
(** [fleet_slo]: the fleet upgrade-wave planner launches one extra
    drain beyond the wave's concurrency bound — a correct planner never
    does, so the checker's own in-flight count must catch it. *)

val active : unit -> string list
(** Names of the currently-set flags. *)

(** {1 Test-only} *)

val with_fault : bool ref -> (unit -> 'a) -> 'a
(** Kept: [with_fault flag k] runs [k] with [flag] set, restoring it
    after, even when [k] raises: the one way the mutation tests seed a
    fault. *)
