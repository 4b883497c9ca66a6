(** Per-run health reports: checker verdicts plus SLO budgets.

    A report couples the {!Checker} verdicts with budget checks over the
    run's recovery {!Telemetry.Phase}s (failover duration,
    planned-migration duration, replica catch-up, TCP replay, BFD
    detection), paired from the buffered bus entries. Budgets are only
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
  events_seen : int;
  queue_drops : int;  (** Informational [Queue_dropped] count. *)
  bus_dropped : int;
      (** Telemetry ring-buffer overwrites ({!Telemetry.Bus.dropped_total})
          at the moment the report was cut. Non-zero fails {!ok}: a
          checker cannot vouch for events it never saw. *)
  engine : engine_cost;
  critical_path : Causal.Critical.t option;
      (** Recovery critical path, present when the causal recorder
          ([Causal.Recorder]) is attached as the report is cut and a
          recovery phase (["failover"], else ["planned_migration"])
          finished.
          Informational: never affects {!ok}. *)
  phases : Telemetry.Phase.t list;
      (** The run's recovery phases, folded once from the buffered bus
          entries for the SLOs and the critical path, and read again by
          the Perfetto trace of [--out]; [[]] when neither was
          evaluated. *)
  faults : string list;  (** Seeded faults active when the report was cut. *)
}

val make :
  ?budgets:(string * float) list ->
  engine:engine_cost ->
  scenario:string ->
  Checker.t ->
  report
(** Finalizes the checker set (see {!Checker.finalize}) and evaluates
    the budgets against the phases of {!Telemetry.Bus.events}. The
    phases are folded only when [budgets] is non-empty (the default
    budgets when omitted) or the causal recorder is attached. [engine]
    is the engine-cost section; bus drops are read from the live bus. *)

val ok : report -> bool
(** No violations, every evaluated SLO within budget, and zero telemetry
    bus drops. *)

val violations : report -> Checker.violation list

val to_text : report -> string
val to_json : report -> string
