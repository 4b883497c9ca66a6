(** Fleet fault campaigns: the chaos grammar's fleet tokens with their
    correlated semantics.

    [host_kill] fails the busiest host outright (every co-located
    instance dies at once), [region_store_outage] takes the busiest
    region's store off the network so the whole region sheds and
    re-arms together, [rolling_upgrade] drains the fleet through
    {!Waves}. Single-instance tokens ([kill.*], [planned]) target the
    first instance, so mixed schedules stay meaningful; everything else
    is rejected up front. Runs are deterministic functions of the spec:
    equal specs give byte-identical telemetry digests on any [--jobs]
    setting. *)

type spec = {
  hosts : int;
  regions : int;
  instances : int;  (** Rounded up to a multiple of {!Topology.replicas}. *)
  seed : int;
  faults : Chaos.Descriptor.fault list;
  window_ms : int;
      (** Minimum fault window; {!run} widens it automatically so every
          scheduled fault (and a full rolling upgrade) fits. *)
  settle_ms : int;
  ctrl_delay_us : int;
      (** Controller uplink one-way delay — the centralization knob
          (per-host ~50 µs, regional ~500 µs, global ~5000 µs). *)
}

val default_spec : spec
(** 20 instances, 2 regions, 8 hosts, no faults, regional controller. *)

val default_campaign : string
(** The stock correlated campaign for CLI/CI:
    ["host_kill@5000,region_store_outage@20000+8000"]. *)

val check_faults : Chaos.Descriptor.fault list -> (unit, string) result
(** Rejects tokens without fleet-scale semantics. *)

type outcome = {
  spec : spec;  (** With the widened window. *)
  checkers : (string * Monitor.Checker.result) list;
  violations : Monitor.Checker.violation list;
  errors : string list;
  slo : Slo.report;
  digest : string;  (** MD5 of the telemetry JSONL — the replay digest. *)
  events : int;
  convergence_s : float;  (** Boot → every session Established. *)
}

val ok : outcome -> bool

val run : ?out:string -> spec -> outcome
(** A body passed to {!Tensor.Check.checked}: builds the topology,
    converges every session, seeds routes, executes the fault schedule
    under all ten checkers plus the SLO aggregator, and closes with a
    graceful-degradation end-state check: an instance that ends the run
    not Running while healthy in-region capacity exists is an error
    even when no checker names it. [?out] also writes [slo.json]. *)

val summary : outcome -> string
