(* lib/trace: the causal event DAG must mirror scheduling causality
   (parent = the event executing at schedule time, -1 outside dispatch),
   critical-path segments must sum exactly to the recovery phase's duration
   (the Fig. 5a decomposition is an identity, not an estimate), the
   Perfetto export must be valid trace_event JSON, the simulated-time
   series must window on boundaries, and — like the profiler — the whole
   tracer must be observation-only: corpus replay digests byte-identical
   with the hooks attached or not. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let fresh () =
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  Causal.Recorder.reset ()

(* --- recorder: causality ---------------------------------------------------- *)

let test_recorder_causality () =
  fresh ();
  Causal.Recorder.attach ();
  checkb "hook installed" true (Causal.Recorder.enabled ());
  let eng = Sim.Engine.create () in
  let root_id = ref (-1) in
  let child_id = ref (-1) in
  let h =
    Sim.Engine.schedule_after eng ~label:"root" (Sim.Time.ms 10) (fun () ->
        root_id := Sim.Engine.current_event_id eng;
        ignore
          (Sim.Engine.schedule_after eng (Sim.Time.ms 5) (fun () ->
               child_id := Sim.Engine.current_event_id eng)))
  in
  ignore h;
  (* Scheduled outside dispatch: no causal parent. *)
  ignore (Sim.Engine.schedule_after eng ~label:"solo" (Sim.Time.ms 1) (fun () -> ()));
  Sim.Engine.run eng;
  Causal.Recorder.detach ();
  checkb "hook removed" false (Causal.Recorder.enabled ());
  checki "three dispatches recorded" 3 (Causal.Recorder.node_count ());
  checki "one engine, one track" 1 (Causal.Recorder.track_count ());
  let node id =
    match Causal.Recorder.find ~track:0 ~id with
    | Some n -> n
    | None -> Alcotest.failf "no node for event id %d" id
  in
  let root = node !root_id and child = node !child_id in
  checki "root has no causal parent" (-1) root.Causal.Recorder.parent;
  checki "child's parent is the root event" !root_id child.Causal.Recorder.parent;
  checks "child inherits the root's label" "root" child.Causal.Recorder.label;
  checki "child dwell = 5ms" (Sim.Time.ms 5)
    (Sim.Time.diff child.Causal.Recorder.exec_at child.Causal.Recorder.sched_at);
  checki "current id is -1 outside dispatch" (-1)
    (Sim.Engine.current_event_id eng)

let test_recorder_limit () =
  fresh ();
  Causal.Recorder.attach ~limit:2 ();
  let eng = Sim.Engine.create () in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule_after eng ~label:"x" (Sim.Time.ms i) (fun () -> ()))
  done;
  Sim.Engine.run eng;
  Causal.Recorder.detach ();
  checki "cap respected" 2 (Causal.Recorder.node_count ());
  checki "overflow counted" 3 (Causal.Recorder.dropped ());
  Causal.Recorder.reset ();
  checki "reset forgets nodes" 0 (Causal.Recorder.node_count ());
  checki "reset forgets drops" 0 (Causal.Recorder.dropped ())

(* --- critical path: the sum identity --------------------------------------- *)

(* A synthetic recovery: the fault event emits [Failure_injected], which
   opens the failover phase, and a 3-hop chain (fault -> bfd.detect ->
   tcp.replay) emits the [Tcp_synced] that closes it. *)
let synthetic_recovery () =
  fresh ();
  Causal.Recorder.attach ();
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.schedule_after eng ~label:"fault" (Sim.Time.ms 10) (fun () ->
         Telemetry.Bus.emit eng
           (Telemetry.Event.Failure_injected { service = "s"; kind = "app" });
         ignore
           (Sim.Engine.schedule_after eng ~label:"bfd.detect" (Sim.Time.ms 40)
              (fun () ->
                ignore
                  (Sim.Engine.schedule_after eng ~label:"tcp.replay"
                     (Sim.Time.ms 50) (fun () ->
                       Telemetry.Bus.emit eng
                         (Telemetry.Event.Tcp_synced
                            { service = "s"; vrf = "v0" })))))));
  (* Noise off the critical path must not appear in it. *)
  ignore
    (Sim.Engine.schedule_after eng ~label:"noise" (Sim.Time.ms 60) (fun () -> ()));
  Sim.Engine.run eng;
  (* Emitted from harness code: no event to bind it to. *)
  Telemetry.Bus.emit eng
    (Telemetry.Event.Generic
       { cat = Telemetry.Event.Orch; name = "harness"; detail = "" });
  Causal.Recorder.detach ()

let phases () = Telemetry.Phase.of_entries (Telemetry.Bus.events ())

let extract () =
  match Causal.Critical.of_phases ~name:"failover" (phases ()) with
  | Ok cp -> cp
  | Error e -> Alcotest.failf "critical path: %s" e

(* What the segment durations add up to: by construction, [total]. *)
let segment_sum cp =
  List.fold_left
    (fun acc (s : Causal.Critical.segment) -> acc + s.dur)
    0 cp.Causal.Critical.segments

let seg_labels cp =
  List.map (fun (s : Causal.Critical.segment) -> s.label) cp.Causal.Critical.segments

let test_critical_path_sum () =
  synthetic_recovery ();
  let cp = extract () in
  checki "phase duration 90ms" (Sim.Time.ms 90) cp.Causal.Critical.total;
  checki "segments sum exactly to the phase duration" cp.Causal.Critical.total
    (segment_sum cp);
  checki "three events on the path" 3 cp.Causal.Critical.events;
  Alcotest.(check (list string))
    "per-label decomposition in time order"
    [ "fault"; "bfd.detect"; "tcp.replay" ]
    (seg_labels cp);
  let dur l =
    let s =
      List.find
        (fun (s : Causal.Critical.segment) -> s.label = l)
        cp.Causal.Critical.segments
    in
    s.Causal.Critical.dur
  in
  checki "bfd segment 40ms" (Sim.Time.ms 40) (dur "bfd.detect");
  checki "tcp segment 50ms" (Sim.Time.ms 50) (dur "tcp.replay");
  let bound (e : Telemetry.Bus.entry) =
    Causal.Recorder.entry_binding e.seq <> None
  in
  Alcotest.(check (list bool))
    "entries emitted inside a dispatch are bound, the harness's is not"
    [ true; true; false ]
    (List.map bound (Telemetry.Bus.events ()));
  match Causal.Critical.of_phases ~name:"no-such-phase" (phases ()) with
  | Ok _ -> Alcotest.fail "expected an error for an unknown phase"
  | Error _ -> ()

(* --- the real thing: checked failover scenario ------------------------------ *)

let test_failover_critical_path () =
  fresh ();
  Telemetry.Gate.set false;
  Causal.Recorder.attach ();
  let report =
    match Tensor.Check.run "failover" with
    | Ok r -> r
    | Error e -> Alcotest.failf "check failover: %s" e
  in
  Causal.Recorder.detach ();
  checkb "scenario healthy with tracer attached" true (Monitor.Health.ok report);
  checki "fig5a-sized run with tracing on drops nothing" 0
    report.Monitor.Health.bus_dropped;
  let cp =
    match report.Monitor.Health.critical_path with
    | Some cp -> cp
    | None -> Alcotest.fail "health report has no critical_path section"
  in
  checks "rooted at the failover phase" "failover" cp.Causal.Critical.span_name;
  checkb "recovery decomposed into multiple segments" true
    (List.length cp.Causal.Critical.segments >= 2);
  checki "segment sum equals the failover phase duration"
    cp.Causal.Critical.total
    (segment_sum cp);
  checkb "path has real depth" true (cp.Causal.Critical.events > 2);
  (* The JSON rendering round-trips. *)
  match Monitor.Json.parse (Causal.Critical.to_json cp) with
  | Error e -> Alcotest.failf "critical-path JSON invalid: %s" e
  | Ok j ->
      checkb "total_ns present" true (Monitor.Json.member "total_ns" j <> None)

(* --- perfetto export -------------------------------------------------------- *)

let json_mem name j =
  match Monitor.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" name

let test_perfetto_export () =
  synthetic_recovery ();
  let cp = extract () in
  let out =
    Causal.Perfetto.export ~critical:cp
      (Telemetry.Phase.of_entries (Telemetry.Bus.events ()))
  in
  match Monitor.Json.parse out with
  | Error e -> Alcotest.failf "perfetto output is not valid JSON: %s" e
  | Ok j -> (
      checkb "declares a display unit" true
        (Monitor.Json.to_str (json_mem "displayTimeUnit" j) = Some "ms");
      match Monitor.Json.to_list (json_mem "traceEvents" j) with
      | None -> Alcotest.fail "traceEvents is not a list"
      | Some evs ->
          checkb "events present" true (List.length evs > 5);
          let phases =
            List.filter_map
              (fun e ->
                Option.bind (Monitor.Json.member "ph" e) Monitor.Json.to_str)
              evs
          in
          checki "every event has a phase" (List.length evs)
            (List.length phases);
          let has p = List.mem p phases in
          checkb "instants for engine events" true (has "i");
          checkb "async begin/end for phases" true (has "b" && has "e");
          checkb "critical-path slices" true (has "X");
          checkb "track metadata" true (has "M"))

(* --- simulated-time series --------------------------------------------------- *)

let test_series_windows () =
  fresh ();
  let c = Telemetry.Registry.counter "test_trace.series_ticks" in
  let s = Causal.Series.attach () in
  (* The sampler watches dispatches: ticks are engine events. *)
  let tick () = Telemetry.Registry.incr c in
  let eng = Sim.Engine.create () in
  List.iter
    (fun ms -> ignore (Sim.Engine.schedule_at eng (Sim.Time.ms ms) tick))
    [ 500; 1500; 3700 ];
  Sim.Engine.run eng;
  (* A fresh engine restarts simulated time: new run index. *)
  let eng2 = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at eng2 (Sim.Time.ms 200) tick);
  Sim.Engine.run eng2;
  Causal.Series.detach s;
  (* Boundaries 1s, 2s, 3s in run 0, plus the run-0 flush at 3.7s when
     time went backwards, plus the final flush at 0.2s of run 1. *)
  let lines =
    String.split_on_char '\n' (Causal.Series.to_jsonl s)
    |> List.filter (fun l -> l <> "")
  in
  checki "one JSONL line per row" 5 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Monitor.Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad series row %S: %s" l e)
      lines
  in
  let runs =
    List.filter_map
      (fun j ->
        Option.bind (Monitor.Json.member "run" j) Monitor.Json.to_float)
      parsed
  in
  Alcotest.(check (list (float 0.0)))
    "run indices" [ 0.; 0.; 0.; 0.; 1. ] runs;
  let times =
    List.filter_map
      (fun j ->
        Option.bind (Monitor.Json.member "t_ns" j) Monitor.Json.to_float)
      parsed
  in
  Alcotest.(check (list (float 0.0)))
    "boundary timestamps"
    [ 1e9; 2e9; 3e9; 3.7e9; 0.2e9 ]
    times;
  (* The counter is sampled, and a boundary row is taken
     before the first event past the boundary runs. *)
  let ticks =
    List.map
      (fun j ->
        match
          Option.bind
            (Monitor.Json.member "test_trace.series_ticks" (json_mem "metrics" j))
            Monitor.Json.to_float
        with
        | Some v -> v
        | None -> Alcotest.fail "counter missing")
      parsed
  in
  Alcotest.(check (list (float 0.0))) "ticks per row" [ 1.; 2.; 2.; 3.; 4. ] ticks

(* --- determinism: tracer on/off must not change telemetry ------------------- *)

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else "../corpus"

(* The recorder shares the engine's observer slot with a
   [set_trace_hook] hook and the profiler, attached after it (the
   reverse of test_prof's order): each sees every dispatch, and the
   digest is the bare run's. *)
let test_digests_identical_with_tracer () =
  let entries = Chaos.Corpus.load_dir (corpus_dir ()) in
  checkb "committed corpus present" true (List.length entries >= 2);
  List.iteri
    (fun i (name, d) ->
      if i < 2 then
        match d with
        | Error e -> Alcotest.failf "%s: %s" name e
        | Ok desc ->
            let off = Chaos.Runner.run desc in
            let hooked = ref 0 in
            Causal.Recorder.reset ();
            Causal.Recorder.attach ();
            Sim.Engine.set_trace_hook
              (Some
                 (fun ~eng:_ ~id:_ ~parent:_ ~label:_ ~sched_at:_ ~exec_at:_ ->
                   incr hooked));
            Prof.Profiler.attach ();
            let ev0 = Sim.Engine.global_processed_events () in
            let on_ = Chaos.Runner.run desc in
            let dispatched = Sim.Engine.global_processed_events () - ev0 in
            Prof.Profiler.detach ();
            Sim.Engine.set_trace_hook None;
            Causal.Recorder.detach ();
            checkb (name ^ " replays green") true
              (Chaos.Runner.ok off && Chaos.Runner.ok on_);
            checks
              (name ^ ": telemetry digest identical with tracer attached")
              off.Chaos.Runner.digest on_.Chaos.Runner.digest;
            checkb (name ^ ": the run dispatched events") true (dispatched > 0);
            checki (name ^ ": recorder saw every dispatch") dispatched
              (Causal.Recorder.node_count ());
            checki (name ^ ": hook saw every dispatch") dispatched !hooked;
            checki (name ^ ": profiler saw every dispatch") dispatched
              (Prof.Profiler.total_events ()))
    entries

(* --- observed checked runs (tensor-cli check --out) ------------------------- *)

let report_of scenario = function
  | Ok r -> r
  | Error e -> Alcotest.failf "check %s: %s" scenario e

(* The observers add exactly two sections: the critical path and the
   profiled engine rows. Everything else must be the bare run's. *)
let without_observations (r : Monitor.Health.report) =
  Monitor.Health.to_json
    {
      r with
      critical_path = None;
      engine = { r.engine with profiled = [] };
    }

let profiled (r : Monitor.Health.report) = r.engine.profiled

let test_observed_matches_bare () =
  fresh ();
  let out = Filename.temp_dir "tensor-check" "" in
  (* Bare and observed runs alternate, so every bare run after the first
     follows an observed one in the same process. *)
  List.iter
    (fun scenario ->
      let bare = report_of scenario (Tensor.Check.run scenario) in
      let seen = report_of scenario (Tensor.Check.run ~out scenario) in
      checks
        (scenario ^ ": same report apart from the observed sections")
        (without_observations bare) (without_observations seen);
      checkb (scenario ^ ": healthy") true (Monitor.Health.ok seen);
      checkb (scenario ^ ": bare run has no critical path") true
        (bare.Monitor.Health.critical_path = None);
      checkb (scenario ^ ": bare run has no profiled rows") true
        (profiled bare = []);
      checkb (scenario ^ ": profiled engine rows") true (profiled seen <> []);
      match (scenario, seen.Monitor.Health.critical_path) with
      | "degraded", None -> ()
      | "degraded", Some _ ->
          Alcotest.fail "degraded never migrates, so it has no critical path"
      | _, None -> Alcotest.failf "%s: no critical path" scenario
      | _, Some cp ->
          checki
            (scenario ^ ": segments sum to the recovery phase")
            cp.Causal.Critical.total
            (segment_sum cp))
    Tensor.Check.scenarios

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parses what text =
  match Monitor.Json.parse text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s is not valid JSON: %s" what e

let test_out_writes_artifacts () =
  fresh ();
  let out = Filename.temp_dir "tensor-check" "" in
  ignore (report_of "failover" (Tensor.Check.run ~out "failover"));
  let dir = Filename.concat out "failover" in
  let expected =
    [
      "engine_cost.txt"; "events.jsonl"; "health.json"; "metrics.json";
      "timeseries.jsonl"; "trace.perfetto.json";
    ]
  in
  Alcotest.(check (list string))
    "the full file set" expected
    (List.sort String.compare (Array.to_list (Sys.readdir dir)));
  List.iter
    (fun file ->
      let text = read_file (Filename.concat dir file) in
      checkb (file ^ " is not empty") true (text <> "");
      if Filename.check_suffix file ".jsonl" then
        List.iter
          (fun line -> if line <> "" then parses (file ^ " line") line)
          (String.split_on_char '\n' text)
      else if Filename.check_suffix file ".json" then parses file text)
    expected;
  let health =
    Monitor.Json.parse_exn (read_file (Filename.concat dir "health.json"))
  in
  checkb "health.json links the critical path" true
    (Monitor.Json.member "critical_path" health <> None);
  checkb "health.json carries the cost ledger" true
    (match Option.bind (Monitor.Json.member "engine" health) (Monitor.Json.member "profiled") with
    | Some (Monitor.Json.List (_ :: _)) -> true
    | _ -> false)

(* [tensor-cli experiment --out DIR table1]: the common artifact set
   plus one CSV per printed table, in DIR/table1/. *)
let test_experiment_out_writes_artifacts () =
  let out = Filename.temp_dir "tensor-experiment" "" in
  let dir = Filename.concat out "table1" in
  let e = Option.get (Tensor.Experiments.find "table1") in
  Tensor.Check.observed ~dir (fun () -> e.run ~quick:true);
  checkb "telemetry is off again" false (Telemetry.Gate.on ());
  checkb "profiler detached" false (Prof.Profiler.enabled ());
  let expected =
    [
      "engine_cost.txt"; "events.jsonl"; "metrics.json"; "timeseries.jsonl";
    ]
  in
  let files = List.sort String.compare (Array.to_list (Sys.readdir dir)) in
  let tables, rest =
    List.partition (fun f -> Filename.check_suffix f ".csv") files
  in
  Alcotest.(check (list string)) "the common file set" expected rest;
  checkb "one CSV per printed table" true (List.length tables >= 1);
  List.iter
    (fun file ->
      let text = read_file (Filename.concat dir file) in
      checkb (file ^ " is not empty") true (text <> "");
      if Filename.check_suffix file ".jsonl" then
        List.iter
          (fun line -> if line <> "" then parses (file ^ " line") line)
          (String.split_on_char '\n' text)
      else if Filename.check_suffix file ".json" then parses file text)
    files;
  let cost = read_file (Filename.concat dir "engine_cost.txt") in
  checkb "cost table lists the BFD transmit label" true
    (List.exists
       (fun line -> String.starts_with ~prefix:"bfd.tx " line)
       (String.split_on_char '\n' cost))

(* fig5a counts TCP segments, which post nothing to the telemetry bus:
   the series still samples them, at every window boundary the engine
   crosses, and its last row is the run's final count. *)
let test_experiment_series_samples_tcp () =
  let dir = Filename.concat (Filename.temp_dir "tensor-series" "") "fig5a" in
  let e = Option.get (Tensor.Experiments.find "fig5a") in
  Tensor.Check.observed ~dir (fun () -> e.run ~quick:true);
  let counts =
    String.split_on_char '\n' (read_file (Filename.concat dir "timeseries.jsonl"))
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match
             Option.bind
               (Option.bind
                  (Monitor.Json.member "metrics" (Monitor.Json.parse_exn l))
                  (Monitor.Json.member "tcp.segments_out"))
               Monitor.Json.to_float
           with
           | Some v -> int_of_float v
           | None -> Alcotest.failf "row without tcp.segments_out: %s" l)
  in
  checkb "at least one row" true (counts <> []);
  checkb "tcp.segments_out never decreases" true
    (fst
       (List.fold_left (fun (ok, prev) v -> (ok && v >= prev, v)) (true, 0) counts));
  let final =
    match
      Monitor.Json.member "metrics"
        (Monitor.Json.parse_exn (read_file (Filename.concat dir "metrics.json")))
    with
    | Some (Monitor.Json.List metrics) ->
        List.find_map
          (fun m ->
            if Monitor.Json.member "name" m = Some (Str "tcp.segments_out") then
              Option.bind (Monitor.Json.member "value" m) Monitor.Json.to_int
            else None)
          metrics
    | _ -> Alcotest.fail "metrics.json has no metrics list"
  in
  Alcotest.(check (option int))
    "last row = metrics.json" final
    (Some (List.nth counts (List.length counts - 1)))

let () =
  Alcotest.run "trace"
    [
      ( "recorder",
        [
          Alcotest.test_case "causal parentage, labels, dwell" `Quick
            test_recorder_causality;
          Alcotest.test_case "node cap and drop accounting" `Quick
            test_recorder_limit;
        ] );
      ( "critical",
        [
          Alcotest.test_case "segments sum to the span duration" `Quick
            test_critical_path_sum;
          Alcotest.test_case "checked failover decomposes recovery" `Slow
            test_failover_critical_path;
        ] );
      ( "perfetto",
        [ Alcotest.test_case "valid trace_event JSON" `Quick test_perfetto_export ] );
      ( "series",
        [
          Alcotest.test_case "window boundaries and runs" `Quick test_series_windows;
          Alcotest.test_case "fig5a --out samples tcp" `Slow
            test_experiment_series_samples_tcp;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus digests identical with tracer on" `Slow
            test_digests_identical_with_tracer;
        ] );
      ( "check --out",
        [
          Alcotest.test_case "observed runs match bare runs" `Slow
            test_observed_matches_bare;
          Alcotest.test_case "writes the full artifact set" `Slow
            test_out_writes_artifacts;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "--out writes the common artifact set" `Quick
            test_experiment_out_writes_artifacts;
        ] );
    ]
