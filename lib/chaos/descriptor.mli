(** Chaos scenario descriptors.

    A descriptor is the complete, replayable identity of one fuzz run:
    the engine seed, the randomized topology/workload parameters, and
    the fault schedule. Everything the runner does is a deterministic
    function of the descriptor, so a one-line serialization (see
    {!to_string}) is a full repro — that is what the committed [corpus/]
    stores and what CI replays.

    All quantities are integers (times in milliseconds, probabilities
    and factors in percent) so that [of_string (to_string d) = Ok d]
    holds exactly, with no float round-tripping. *)

type fault =
  | Kill of { at_ms : int; kind : Orch.Controller.failure_kind }
      (** Inject the corresponding failure on the service's current
          primary (app crash / container kill / host kill / host network
          partition). *)
  | Planned of { at_ms : int }  (** Planned switchover (§4.4). *)
  | Heal of { at_ms : int }
      (** [Orch.Host.network_recover] every host partitioned by an
          earlier [Kill Host_network_failure] (the split-brain probe). *)
  | Flap of { at_ms : int; vrf : int; dur_ms : int }
      (** Peer link down for [dur_ms] (drops in-flight packets). *)
  | Loss of { at_ms : int; vrf : int; dur_ms : int; loss_pct : int }
      (** Random loss burst on the peer link. *)
  | Bfd_perturb of { at_ms : int; vrf : int; factor_pct : int }
      (** Rescale the service-side BFD transmit interval to
          [factor_pct]% of its current value. *)
  | Peer_rst of { at_ms : int; vrf : int }
      (** The remote AS aborts the TCP connection (middlebox RST). *)
  | Peer_cease of { at_ms : int; vrf : int }
      (** The remote AS administratively stops the session (Cease
          NOTIFICATION), then re-enables it 1 s later. *)
  | Store_crash of { at_ms : int; dur_ms : int }
      (** The primary store server dies losing all RAM (no-persistence
          Redis). [dur_ms = 0] is a permanent crash — the deployment gets
          a synchronous replica and clients fail over to it; otherwise
          the primary restarts {e empty} after [dur_ms] and the service
          re-arms replication under a fresh epoch (degraded pass-through
          first, when the outage outlives the held-ACK deadline).
          Token: [store_crash@T] or [store_crash@T+DUR]. *)
  | Store_partition of { at_ms : int; dur_ms : int }
      (** The store server's network goes down for [dur_ms] (RAM
          preserved). Token: [store_partition@T+DUR]. *)
  | Store_slow of { at_ms : int; dur_ms : int; factor_pct : int }
      (** Store operation costs scaled to [factor_pct]% (in
          [\[101, 10000\]]) for [dur_ms] — held-ACK latency stress
          without unreachability. Token: [store_slow@T+DUR:FACTOR]. *)
  | Host_kill of { at_ms : int }
      (** Correlated whole-host kill. At fleet scale every co-located
          container (and its BFD sessions) dies at once; the
          single-instance runner maps it to a host failure of the
          service's primary. Token: [host_kill@T]. *)
  | Region_store_outage of { at_ms : int; dur_ms : int }
      (** A region's store becomes unreachable for [dur_ms]: every
          instance in the region sheds and re-arms together. The
          single-instance runner maps it to a store partition.
          Token: [region_store_outage@T+DUR]. *)
  | Rolling_upgrade of { at_ms : int; bound : int }
      (** Fleet-wide rolling upgrade starting at [at_ms] with at most
          [bound] concurrent drain→upgrade→resume moves (bound in
          [\[1, 64\]]). The single-instance runner maps it to a planned
          switchover. Token: [rolling_upgrade@T:BOUND]. *)

type t = {
  seed : int;  (** Engine seed for the deployment. *)
  peers : int;  (** Peering ASes = VRFs of the service. *)
  hosts : int;
  peer_prefixes : int;  (** Routes each peer originates. *)
  svc_prefixes : int;  (** Routes the service originates per VRF. *)
  churn : int;  (** Announce/withdraw cycles per peer during the window. *)
  delay_us : int;  (** Peer link one-way delay. *)
  window_ms : int;  (** Active fault window after convergence. *)
  settle_ms : int;  (** Quiescence before end-state checks. *)
  faults : fault list;  (** Sorted by time. *)
}

val fault_at : fault -> int
(** Injection time, ms from the start of the fault window. *)

val fault_kind_name : fault -> string
(** Stable class name: [kill.app], [flap], [rst], ... *)

val fault_to_string : fault -> string
(** The fault's serialized token, e.g. [host_kill@5000]. *)

val generate : seed:int -> t
(** The seeded generator: parameters and fault schedule are drawn from a
    {!Sim.Rng} stream derived from [seed] (which also becomes the engine
    seed). Generated schedules stay inside the envelope where every
    armed checker is a valid oracle — e.g. link flaps are bounded below
    the BFD detection window, and heavy faults (kills, planned
    switchovers) are spaced far enough apart that migrations do not
    overlap except for the deliberate planned+kill overlap case. *)

val sub_seed : seed:int -> int -> int
(** [sub_seed ~seed i] derives the descriptor seed of run [i] of a fuzz
    campaign seeded with [seed] (SplitMix64 finalizer). *)

val to_string : t -> string
(** One line, no newline: ["chaos1 seed=.. peers=.. ... faults=.."]. *)

val of_string : string -> (t, string) result

val faults_of_string : string -> (fault list, string) result
(** Parses a bare comma-separated fault-token list (the [faults=]
    payload alone — what [tensor-cli fleet --campaign] takes) and
    validates it under the same structural rules as a full descriptor,
    in a fault window sized to admit every parsed token. [""] and ["-"]
    are the empty schedule. *)

val equal : t -> t -> bool

val validate : t -> (unit, string) result
(** Structural sanity: positive counts, fault vrf indices in range,
    times within the window, and no kill/planned fault inside a store
    outage window (the store is the recovery substrate — such a
    migration can never complete). The fleet tokens obey the same
    rules: [host_kill] and [rolling_upgrade] are rejected inside any
    store outage window (including [region_store_outage]), and two
    [rolling_upgrade] waves in one schedule are always overlapping —
    a wave owns the fleet until its schedule-dependent completion — so
    they are rejected too. [of_string] applies it; [generate] always
    satisfies it. *)
