(** Checked scenarios: NSR episodes run under the runtime verifier.

    Each scenario builds the standard one-service / one-peer deployment
    with telemetry enabled and a {!Monitor.Checker} subscribed before
    the first container boots, runs the episode, emits end-of-run
    [Rib_snapshot] pairs for the convergence checker, and returns the
    {!Monitor.Health} report. Seeded {!Monitor.Faults} are honoured,
    which is how the mutation tests exercise each checker. *)

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

val failover :
  ?kind:Orch.Controller.failure_kind -> unit -> Monitor.Health.report
(** Table 1 episode: inject [kind] (default container failure), let the
    controller migrate, verify. *)

val planned : unit -> Monitor.Health.report
(** §4.4 planned migration of a healthy primary. *)

val split_brain : unit -> Monitor.Health.report
(** Host-network partition, migration, then partition heal: the old
    primary must stay fenced (no dual speaker). *)

val degraded : unit -> Monitor.Health.report
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
(** Dispatch by scenario name ([?kind] applies to ["failover"]).

    With [?out], the run also attaches the causal recorder, the
    metric-series sampler and the engine profiler, and writes every
    artifact into [out/<name>/], creating it if needed:
    - [health.json]: {!Monitor.Health.to_json} of the report, which then
      also carries the recovery [critical_path] (the three recovery
      scenarios; ["degraded"] never migrates) and the profiled
      [engine] rows — the verdict, critical path and cost ledger of the
      run in one file;
    - [spans.jsonl], [events.jsonl], [metrics.csv], [metrics.json]
      ({!Telemetry.Control.export_dir}) and [spans.txt] (the span
      tree);
    - [trace.perfetto.json] and [timeseries.jsonl];
    - the four profile files of {!Prof.Export.write_dir}.

    The observers change no simulated outcome: apart from those two
    sections the report equals the bare run's. *)
