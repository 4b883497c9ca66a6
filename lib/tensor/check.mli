(** Checked runs: {!checked} is the one lifecycle of a run under the
    runtime verifier; the scenarios here, [Chaos.Runner.run] and
    [Fleet.Campaign.run] are bodies passed to it.

    Each scenario builds the standard one-service / one-peer deployment,
    runs the episode, emits end-of-run [Rib_snapshot] pairs for the
    convergence checker, and returns the {!Monitor.Health} report.
    Seeded {!Monitor.Faults} are honoured, which is how the mutation
    tests exercise each checker. *)

val scenarios : string list
(** ["failover"; "planned"; "split-brain"; "degraded"]. *)

val ack_deadline_s : degrade_frac:float -> float
(** The {!Monitor.Checker.config.ack_deadline_s} of a run whose
    replicators shed held ACKs after [degrade_frac] of the negotiated
    hold time ({!Bgp.Session.default_hold_time}), so the
    [degraded_mode_exclusion] checker verifies the bound the replicator
    promised. *)

val snapshot_session :
  Sim.Engine.t ->
  vrf:string ->
  peer_name:string ->
  peer_speaker:Bgp.Speaker.t ->
  peer_addr:Netsim.Addr.t ->
  vip:Netsim.Addr.t ->
  Bgp.Speaker.t ->
  (string * string) * (string * string)
(** Emits the four end-state [Rib_snapshot] events of one session — per
    direction, what one side advertised vs what the other holds — which
    is what the [rib_convergence] checker groups and compares. Returns
    the digest pairs, [((peer_advertised, service_learned),
    (service_advertised, peer_learned))], so callers can also
    cross-check directly. Shared by the checked scenarios and the chaos
    runner's end-state verdict. *)

val observed : dir:string -> (unit -> 'a) -> 'a
(** [observed ~dir f] runs [f] observed, as
    [tensor-cli experiment --out] runs each experiment: telemetry is
    reset and recording for [f] alone, the metric-series sampler and
    the engine profiler are attached, and {!Report}'s table CSVs go to
    [dir] (created with its parents). Afterwards [dir] holds the common
    artifact set that every observed run writes, {!checked}'s [?out]
    included, one file per fact, from one function:
    - [metrics.json], the metrics registry, histogram buckets included;
    - [events.jsonl], the bus, whose milestones are the recovery
      phases ({!Telemetry.Phase});
    - [timeseries.jsonl], the metric series per simulated second;
    - [engine_cost.txt], {!Prof.Profiler.cost_table};
    - one CSV per table [f] printed. *)

type 'a checked = {
  value : ('a, exn) result;  (** The end-state step's value, or what raised. *)
  report : Monitor.Health.report;
  digest : string;  (** MD5 (hex) of the run's telemetry JSONL. *)
}

val checked :
  ?out:string ->
  ?budgets:(string * float) list ->
  cfg:Monitor.Checker.config ->
  scenario:string ->
  (Monitor.Checker.t -> Sim.Engine.t * (unit -> 'a)) ->
  'a checked
(** The lifecycle of every checked run: reset and enable telemetry,
    install a {!Monitor.Checker} with [cfg], run the body (it hands back
    its engine and its end-state step), quiesce, run the end-state step,
    cut the {!Monitor.Health} report (finalizing the checker), digest
    the bus, disable telemetry. Quiescing runs the engine on in 1 ms
    slices, for at most 1 s of simulated time, while the checker's
    ledger shows held ACKs ({!Monitor.Checker.outstanding_acks}).

    What the body or its end-state step raises lands in [value], and the
    report and digest are still made; only writing [?out] can raise
    ([Sys_error]). With [?out], {!observed}'s observers and the causal
    recorder watch the run, and [out] gets {!observed}'s artifact set
    plus:
    - [health.json]: the report, which then also carries the recovery
      [critical_path] (when a failover or planned migration finished)
      and the profiled [engine] rows: the verdict, critical path and
      cost ledger in one file;
    - [trace.perfetto.json], the causal trace on simulated time.

    The observers change no simulated outcome: the digest is the bare
    run's, and so is the report apart from those two sections. *)

val verdict :
  violations:Monitor.Checker.violation list -> errors:string list -> string
(** ["result: PASS"], or one line per violation and error, then
    ["result: FAIL"]: how the chaos and fleet summaries end. *)

val run :
  ?kind:Orch.Controller.failure_kind ->
  ?out:string ->
  string ->
  (Monitor.Health.report, string) result
(** Dispatch by scenario name ([?kind] applies to ["failover"]). With
    [?out], the artifacts go to [out/<name>/] (["degraded"] never
    migrates, so it has no critical path). *)
