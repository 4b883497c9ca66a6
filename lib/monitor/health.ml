(* Per-run health report: checker verdicts + SLO budgets over the
   run's recovery phases, rendered as text or JSON. *)

type slo = {
  slo_name : string;
  budget_s : float;
  actual_s : float option; (* worst (longest) instance; None if a phase
                              of that name never finished *)
  instances : int;
  slo_ok : bool;
}

(* Engine-cost section: how much simulation work the scenario took, and
   (when the profiler was attached for the run) where it went. Rows are
   plain data so callers without the profiler can still fill the event
   count. *)
type engine_row = {
  er_label : string;
  er_events : int;
  er_wall_s : float;
  er_alloc_bytes : float;
}

type engine_cost = {
  ev_processed : int; (* engine events dispatched during the scenario *)
  profiled : engine_row list; (* empty unless a profiler was attached *)
}

type report = {
  scenario : string;
  checkers : (string * Checker.result) list;
  slos : slo list;
  events_seen : int;
  queue_drops : int;
  bus_dropped : int; (* telemetry ring overwrites during the run *)
  engine : engine_cost;
  critical_path : Causal.Critical.t option; (* when the recorder ran *)
  phases : Telemetry.Phase.t list; (* [] when nothing read them *)
  faults : string list;
}

(* Budgets are generous upper bounds, not the paper's means: Table 1's
   worst total is ~9.2 s (host failure, cold boot), so 15 s flags only a
   real regression. Budgets apply per phase name and are skipped when no
   phase of that name occurred. *)
let default_budgets =
  [
    ("failover", 15.0);
    ("planned_migration", 15.0);
    ("replica_catchup", 5.0);
    ("tcp_replay", 10.0);
    ("bfd_detect", 1.0);
  ]

let slos_of_phases budgets phases =
  List.filter_map
    (fun (name, budget_s) ->
      match
        List.filter
          (fun (p : Telemetry.Phase.t) -> String.equal p.name name)
          phases
      with
      | [] -> None
      | named ->
          let unfinished =
            List.exists
              (fun (p : Telemetry.Phase.t) -> p.stop_at = None)
              named
          in
          let worst =
            List.fold_left
              (fun acc (p : Telemetry.Phase.t) ->
                match p.stop_at with
                | None -> acc
                | Some stop ->
                    Float.max acc
                      (Sim.Time.to_sec_f (Sim.Time.diff stop p.start_at)))
              0.0 named
          in
          let actual_s = if unfinished then None else Some worst in
          let slo_ok = (not unfinished) && worst <= budget_s in
          Some
            {
              slo_name = name;
              budget_s;
              actual_s;
              instances = List.length named;
              slo_ok;
            })
    budgets

(* Critical-path section: only meaningful when the causal recorder is
   attached for the run. A detached recorder keeps an earlier run's DAG
   readable, and that DAG must not be read against this run's phases.
   The recovery phases are tried in order; scenarios without either
   just omit the section. *)
let critical_path_of_run phases =
  List.find_map
    (fun name -> Result.to_option (Causal.Critical.of_phases ~name phases))
    [ "failover"; "planned_migration" ]

(* The phase fold reads the whole bus, so a run that neither budgets
   phases nor traces (every chaos and fleet round) skips it. *)
let make ?(budgets = default_budgets) ~engine ~scenario checker =
  let checkers = Checker.finalize checker in
  let traced =
    Causal.Recorder.node_count () > 0 && Causal.Recorder.enabled ()
  in
  let phases =
    if budgets = [] && not traced then []
    else Telemetry.Phase.of_entries (Telemetry.Bus.events ())
  in
  {
    scenario;
    checkers;
    slos = slos_of_phases budgets phases;
    events_seen = Checker.events_seen checker;
    queue_drops = Checker.queue_drop_events checker;
    bus_dropped = Telemetry.Bus.dropped_total ();
    engine;
    critical_path = (if traced then critical_path_of_run phases else None);
    phases;
    faults = Faults.active ();
  }

let violations r =
  List.concat_map
    (fun (_, res) ->
      match res with Checker.Pass -> [] | Checker.Violations vs -> vs)
    r.checkers

(* Bus overwrites count against health: a checker that never saw the
   evicted events cannot vouch for them, so the check scenarios assert
   zero drops (size the rings up rather than accept overwrite). *)
let ok r =
  violations r = []
  && List.for_all (fun s -> s.slo_ok) r.slos
  && r.bus_dropped = 0

let to_text r =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "Health report: %s — %s\n" r.scenario
    (if ok r then "OK" else "UNHEALTHY");
  pf "  events observed: %d" r.events_seen;
  if r.queue_drops > 0 then
    pf " (%d informational queue drop(s))" r.queue_drops;
  pf "\n";
  if r.bus_dropped > 0 then
    pf "  !! telemetry bus dropped %d event(s) to ring overwrite\n"
      r.bus_dropped;
  if r.faults <> [] then
    pf "  !! seeded faults active: %s\n" (String.concat ", " r.faults);
  pf "  invariants:\n";
  List.iter
    (fun (name, res) ->
      match res with
      | Checker.Pass -> pf "    %-24s pass\n" name
      | Checker.Violations vs ->
          pf "    %-24s VIOLATED (%d)\n" name (List.length vs);
          List.iter
            (fun (v : Checker.violation) ->
              pf "      [seq %d, t=%.3fs] %s\n" v.event_seq
                (Sim.Time.to_sec_f v.at) v.detail)
            vs)
    r.checkers;
  if r.slos = [] then pf "  SLOs: (no budgeted phases recorded)\n"
  else begin
    pf "  SLOs:\n";
    List.iter
      (fun s ->
        pf "    %-24s %s  %s vs budget %.2fs (%d instance(s))\n" s.slo_name
          (if s.slo_ok then "ok " else "MISS")
          (match s.actual_s with
          | Some a -> Printf.sprintf "worst %.3fs" a
          | None -> "unfinished")
          s.budget_s s.instances)
      r.slos
  end;
  pf "  engine cost: %d event(s) dispatched\n" r.engine.ev_processed;
  List.iter
    (fun row ->
      pf "    %-24s %8d ev  %8.3fms wall  %10.0f B\n" row.er_label
        row.er_events
        (row.er_wall_s *. 1e3)
        row.er_alloc_bytes)
    r.engine.profiled;
  (match r.critical_path with
  | None -> ()
  | Some cp ->
      String.split_on_char '\n' (Causal.Critical.to_text cp)
      |> List.iter (fun line -> if line <> "" then pf "  %s\n" line));
  Buffer.contents b

let to_json r =
  let b = Buffer.create 2048 in
  let esc = Telemetry.Event.json_escape in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf
    "{\"scenario\":\"%s\",\"ok\":%b,\"events_seen\":%d,\"queue_drops\":%d,\"bus_dropped\":%d,"
    (esc r.scenario) (ok r) r.events_seen r.queue_drops r.bus_dropped;
  pf "\"engine\":{\"ev_processed\":%d,\"profiled\":[%s]},"
    r.engine.ev_processed
    (String.concat ","
       (List.map
          (fun row ->
            Printf.sprintf
              "{\"label\":\"%s\",\"events\":%d,\"wall_s\":%g,\"alloc_bytes\":%g}"
              (esc row.er_label) row.er_events row.er_wall_s row.er_alloc_bytes)
          r.engine.profiled));
  (match r.critical_path with
  | None -> ()
  | Some cp -> pf "\"critical_path\":%s," (Causal.Critical.to_json cp));
  pf "\"faults\":[%s],"
    (String.concat "," (List.map (fun f -> "\"" ^ esc f ^ "\"") r.faults));
  pf "\"violations_total\":%d," (List.length (violations r));
  pf "\"checkers\":[";
  List.iteri
    (fun i (name, res) ->
      if i > 0 then pf ",";
      let vs = match res with Checker.Pass -> [] | Checker.Violations vs -> vs in
      pf "{\"name\":\"%s\",\"status\":\"%s\",\"violations\":[" (esc name)
        (if vs = [] then "pass" else "violated");
      List.iteri
        (fun j (v : Checker.violation) ->
          if j > 0 then pf ",";
          pf "{\"event_seq\":%d,\"t_ns\":%d,\"detail\":\"%s\"}"
            v.event_seq v.at (esc v.detail))
        vs;
      pf "]}")
    r.checkers;
  pf "],\"slos\":[";
  List.iteri
    (fun i s ->
      if i > 0 then pf ",";
      pf "{\"name\":\"%s\",\"budget_s\":%g,\"actual_s\":%s,\"instances\":%d,\"ok\":%b}"
        (esc s.slo_name) s.budget_s
        (match s.actual_s with Some a -> Printf.sprintf "%g" a | None -> "null")
        s.instances s.slo_ok)
    r.slos;
  pf "]}";
  Buffer.contents b
