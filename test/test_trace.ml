(* lib/trace: the causal event DAG must mirror scheduling causality
   (parent = the event executing at schedule time, -1 outside dispatch),
   critical-path segments must sum exactly to the root span's duration
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
  Telemetry.Control.set_enabled true;
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

(* A synthetic recovery: fault event starts the span, a 3-hop chain
   (fault -> bfd.detect -> tcp.replay) closes it. *)
let synthetic_recovery () =
  fresh ();
  Causal.Recorder.attach ();
  let eng = Sim.Engine.create () in
  let sp = ref Telemetry.Span.none in
  ignore
    (Sim.Engine.schedule_after eng ~label:"fault" (Sim.Time.ms 10) (fun () ->
         sp := Telemetry.Span.start eng "recover";
         ignore
           (Sim.Engine.schedule_after eng ~label:"bfd.detect" (Sim.Time.ms 40)
              (fun () ->
                ignore
                  (Sim.Engine.schedule_after eng ~label:"tcp.replay"
                     (Sim.Time.ms 50) (fun () ->
                       Telemetry.Span.finish eng !sp))))));
  (* Noise off the critical path must not appear in it. *)
  ignore
    (Sim.Engine.schedule_after eng ~label:"noise" (Sim.Time.ms 60) (fun () -> ()));
  Sim.Engine.run eng;
  Causal.Recorder.detach ()

let extract ?from_label ?to_label () =
  match Causal.Critical.of_span ?from_label ?to_label ~name:"recover" () with
  | Ok cp -> cp
  | Error e -> Alcotest.failf "critical path: %s" e

let seg_labels cp =
  List.map (fun (s : Causal.Critical.segment) -> s.label) cp.Causal.Critical.segments

let test_critical_path_sum () =
  synthetic_recovery ();
  let cp = extract () in
  checki "span duration 90ms" (Sim.Time.ms 90) cp.Causal.Critical.total;
  checki "segments sum exactly to the span duration" cp.Causal.Critical.total
    (Causal.Critical.segment_sum cp);
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
  checki "tcp segment 50ms" (Sim.Time.ms 50) (dur "tcp.replay")

let test_critical_path_from_to () =
  synthetic_recovery ();
  (* --to re-anchors the endpoint; the rest of the window is reported
     as an explicit untraced segment so the sum identity survives. *)
  let cp = extract ~to_label:"bfd" () in
  checki "sum identity with --to" cp.Causal.Critical.total
    (Causal.Critical.segment_sum cp);
  Alcotest.(check (list string))
    "untraced tail after the bfd endpoint"
    [ "fault"; "bfd.detect"; "(untraced)" ]
    (seg_labels cp);
  (* --from truncates the walk: time before the match folds into the
     matching segment's head. *)
  let cp = extract ~from_label:"bfd.detect" () in
  checki "sum identity with --from" cp.Causal.Critical.total
    (Causal.Critical.segment_sum cp);
  Alcotest.(check (list string))
    "chain truncated at bfd"
    [ "bfd.detect"; "tcp.replay" ]
    (seg_labels cp);
  match Causal.Critical.of_span ~name:"no-such-span" () with
  | Ok _ -> Alcotest.fail "expected an error for an unknown span"
  | Error _ -> ()

(* --- the real thing: checked failover scenario ------------------------------ *)

let test_failover_critical_path () =
  fresh ();
  Telemetry.Control.set_enabled false;
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
  checks "rooted at the failover span" "failover" cp.Causal.Critical.span_name;
  checkb "recovery decomposed into multiple segments" true
    (List.length cp.Causal.Critical.segments >= 2);
  checki "segment sum equals the failover span duration"
    cp.Causal.Critical.total
    (Causal.Critical.segment_sum cp);
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
  let out = Causal.Perfetto.export ~critical:cp () in
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
          checkb "async begin/end for spans" true (has "b" && has "e");
          checkb "critical-path slices" true (has "X");
          checkb "track metadata" true (has "M"))

(* --- simulated-time series --------------------------------------------------- *)

let test_series_windows () =
  fresh ();
  let c = Telemetry.Registry.counter "test_trace.series_ticks" in
  let s =
    Causal.Series.attach
      ~select:(fun n -> n = "test_trace.series_ticks")
      ()
  in
  let eng = Sim.Engine.create () in
  let emit () =
    Telemetry.Registry.incr c;
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic
         { cat = Telemetry.Event.Tcp; name = "tick"; detail = "" })
  in
  Sim.Engine.run_until eng (Sim.Time.ms 500);
  emit ();
  Sim.Engine.run_until eng (Sim.Time.ms 1500);
  emit ();
  Sim.Engine.run_until eng (Sim.Time.ms 3700);
  emit ();
  (* A fresh engine restarts simulated time: new run index. *)
  let eng2 = Sim.Engine.create () in
  Sim.Engine.run_until eng2 (Sim.Time.ms 200);
  Telemetry.Bus.emit eng2
    (Telemetry.Event.Generic
       { cat = Telemetry.Event.Tcp; name = "tick"; detail = "" });
  Causal.Series.detach s;
  (* Boundaries 1s, 2s, 3s in run 0, plus the run-0 flush at 3.7s when
     time went backwards, plus the final flush at 0.2s of run 1. *)
  checki "five rows" 5 (Causal.Series.sample_count s);
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
  (* The selected counter is sampled; its value grows across windows. *)
  List.iter
    (fun j ->
      let m = json_mem "metrics" j in
      checkb "selected metric present" true
        (Monitor.Json.member "test_trace.series_ticks" m <> None))
    parsed

(* --- determinism: tracer on/off must not change telemetry ------------------- *)

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else "../corpus"

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
            Causal.Recorder.reset ();
            Causal.Recorder.attach ();
            let on_ = Chaos.Runner.run desc in
            Causal.Recorder.detach ();
            checkb (name ^ " replays green") true
              (Chaos.Runner.ok off && Chaos.Runner.ok on_);
            checks
              (name ^ ": telemetry digest identical with tracer attached")
              off.Chaos.Runner.digest on_.Chaos.Runner.digest;
            checkb (name ^ ": recorder saw the run") true
              (Causal.Recorder.node_count () > 0))
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
      engine =
        Option.map
          (fun (e : Monitor.Health.engine_cost) -> { e with profiled = [] })
          r.engine;
    }

let profiled (r : Monitor.Health.report) =
  match r.engine with Some e -> e.profiled | None -> []

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
            (scenario ^ ": segments sum to the recovery span")
            cp.Causal.Critical.total
            (Causal.Critical.segment_sum cp))
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
      "engine.folded"; "engine_allocs.folded"; "events.jsonl"; "health.json";
      "metrics.csv"; "metrics.json"; "profile.speedscope.json";
      "spans.folded"; "spans.jsonl"; "spans.txt"; "timeseries.jsonl";
      "trace.perfetto.json";
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
    (match Monitor.Json.path [ "engine"; "profiled" ] health with
    | Some (Monitor.Json.List (_ :: _)) -> true
    | _ -> false)

(* --- bus sizing ------------------------------------------------------------- *)

let test_per_category_capacity () =
  Telemetry.Control.reset ();
  Telemetry.Control.set_bus_capacity 8192;
  Telemetry.Control.set_bus_capacity ~category:Telemetry.Event.Tcp 4;
  checki "override applies" 4
    (Telemetry.Bus.category_capacity Telemetry.Event.Tcp);
  checki "other categories keep the global capacity" 8192
    (Telemetry.Bus.category_capacity Telemetry.Event.Bgp);
  Telemetry.Control.set_enabled true;
  let eng = Sim.Engine.create () in
  for i = 1 to 10 do
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic
         { cat = Telemetry.Event.Tcp; name = "t"; detail = string_of_int i });
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic
         { cat = Telemetry.Event.Bgp; name = "b"; detail = string_of_int i })
  done;
  checki "small ring overwrites" 6 (Telemetry.Bus.dropped Telemetry.Event.Tcp);
  checki "default-sized ring keeps everything" 0
    (Telemetry.Bus.dropped Telemetry.Event.Bgp);
  Telemetry.Control.set_enabled false;
  (* Global resize forgets the override. *)
  Telemetry.Control.set_bus_capacity 8192;
  checki "override cleared by global resize" 8192
    (Telemetry.Bus.category_capacity Telemetry.Event.Tcp);
  Telemetry.Control.reset ()

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
          Alcotest.test_case "--from/--to windows keep the identity" `Quick
            test_critical_path_from_to;
          Alcotest.test_case "checked failover decomposes recovery" `Slow
            test_failover_critical_path;
        ] );
      ( "perfetto",
        [ Alcotest.test_case "valid trace_event JSON" `Quick test_perfetto_export ] );
      ( "series",
        [ Alcotest.test_case "window boundaries and runs" `Quick test_series_windows ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus digests identical with tracer on" `Slow
            test_digests_identical_with_tracer;
        ] );
      ( "bus",
        [
          Alcotest.test_case "per-category capacity override" `Quick
            test_per_category_capacity;
        ] );
      ( "check --out",
        [
          Alcotest.test_case "observed runs match bare runs" `Slow
            test_observed_matches_bare;
          Alcotest.test_case "writes the full artifact set" `Slow
            test_out_writes_artifacts;
        ] );
    ]
