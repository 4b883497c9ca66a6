(** Per-run health reports: checker verdicts plus SLO budgets.

    A report couples the {!Checker} verdicts with budget checks over the
    run's recovery {!Telemetry.Phase}s (failover duration,
    planned-migration duration, replica catch-up, TCP replay, BFD
    detection), paired from the run's bus entries. Budgets are only
    evaluated for phase names that actually occur in the run, so the
    same report works for every scenario. *)

type slo = {
  slo_name : string;  (** Phase name the budget applies to. *)
  budget_s : float;
  actual_s : float option;
      (** Longest instance, seconds; [None] if an instance never
          finished (always a miss). *)
  instances : int;
  slo_ok : bool;
}

type engine_row = {
  er_label : string;  (** Event attribution label (e.g. ["tcp.proc"]). *)
  er_events : int;
  er_wall_s : float;  (** Host wall seconds spent in this label. *)
  er_alloc_bytes : float;
}
(** One row of profiled engine cost, as attributed by [Prof.Profiler]
    (reported as plain data so this library does not depend on it). *)

type engine_cost = {
  ev_processed : int;
      (** Engine events dispatched while the scenario ran. *)
  profiled : engine_row list;
      (** Per-label cost rows; empty unless a profiler was attached. *)
}

type report = {
  scenario : string;
  checkers : (string * Checker.result) list;
  slos : slo list;
  events_seen : int;  (** Entries in the run's bus log. *)
  queue_drops : int;  (** Informational [Queue_dropped] count. *)
  engine : engine_cost;
  critical_path : Causal.Critical.t option;
      (** Recovery critical path, present when the causal recorder
          ([Causal.Recorder]) is attached as the report is cut and a
          recovery phase (["failover"], else ["planned_migration"])
          finished.
          Informational: never affects {!ok}. *)
  phases : Telemetry.Phase.t list;
      (** The run's recovery phases, folded once from the run's bus
          entries for the SLOs and the critical path, and read again by
          the Perfetto trace of [--out]; [[]] when neither was
          evaluated. *)
  faults : string list;  (** Seeded faults active when the report was cut. *)
}

val make :
  ?budgets:(string * float) list ->
  engine:engine_cost ->
  scenario:string ->
  primaries:(string * string) list ->
  entries:Telemetry.Bus.entry list ->
  Checker.config ->
  report
(** The report of the run whose bus log is [entries]: the checkers'
    verdicts ({!Checker.check} with [primaries]), the entry counts, and
    the budgets evaluated against the phases of [entries]. The phases
    are folded only when [budgets] is non-empty (the default budgets
    when omitted) or the causal recorder is attached. [engine] is the
    engine-cost section. *)

val ok : report -> bool
(** No violations and every evaluated SLO within budget. *)

val violations : report -> Checker.violation list

val to_text : report -> string
val to_json : report -> string
