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
    ([Sys_error]). With [?out], the causal recorder, the metric-series
    sampler and the engine profiler watch the run, and its artifacts
    are written into [out] (created with its parents):
    - [health.json]: the report, which then also carries the recovery
      [critical_path] (when a failover or planned migration finished)
      and the profiled [engine] rows: the verdict, critical path and
      cost ledger in one file;
    - [spans.jsonl], [events.jsonl], [metrics.csv], [metrics.json]
      ({!Telemetry.Control.export_dir}) and [spans.txt];
    - [trace.perfetto.json] and [timeseries.jsonl];
    - the four profile files of {!Prof.Export.write_dir}.

    The observers change no simulated outcome: the digest is the bare
    run's, and so is the report apart from those two sections. *)

val verdict :
  violations:Monitor.Checker.violation list -> errors:string list -> string
(** ["result: PASS"], or one line per violation and error, then
    ["result: FAIL"]: how the chaos and fleet summaries end. *)

val failover :
  ?out:string -> ?kind:Orch.Controller.failure_kind -> unit ->
  Monitor.Health.report
(** Table 1 episode: inject [kind] (default container failure), let the
    controller migrate, verify. Each scenario raises what its episode
    raises; [?out] is {!checked}'s. *)

val planned : ?out:string -> unit -> Monitor.Health.report
(** §4.4 planned migration of a healthy primary. *)

val split_brain : ?out:string -> unit -> Monitor.Health.report
(** Host-network partition, migration, then partition heal: the old
    primary must stay fenced (no dual speaker). *)

val degraded : ?out:string -> unit -> Monitor.Health.report
(** Store partitioned past the degrade deadline while routes keep
    arriving: held ACKs must be shed within the configured bound
    (NSR suspended, session alive), and after the store heals the
    re-armed session must converge. The [degraded_mode_exclusion]
    checker runs armed with the scenario's deadline. *)

val run :
  ?kind:Orch.Controller.failure_kind ->
  ?out:string ->
  string ->
  (Monitor.Health.report, string) result
(** Dispatch by scenario name ([?kind] applies to ["failover"]). With
    [?out], the artifacts go to [out/<name>/] (["degraded"] never
    migrates, so it has no critical path). *)
