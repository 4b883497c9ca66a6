(* tensor-cli: drive the TENSOR reproduction from the command line.

     tensor-cli experiment fig6a table1 ...   # regenerate paper artifacts
     tensor-cli failover --kind host          # one failure scenario, verbose
     tensor-cli trace failover --kind host    # causal span tree + JSONL export
     tensor-cli causal failover --json        # recovery critical path
     tensor-cli check failover --trace-dir t  # + Perfetto trace & time series
     tensor-cli metrics                       # registered metrics after a failover
     tensor-cli cdf --links 6000              # Figure 7(a) population
     tensor-cli profile fig5a --out DIR       # engine cost attribution
     tensor-cli fleet --sweep                 # controller-placement sweep
     tensor-cli list                          # experiment ids

   Experiment ids and parameters come from Tensor.Experiments, the
   registry bench/main.exe dispatches through too; trace, metrics,
   check, health and causal run the checked scenarios of
   Tensor.Check. *)

open Cmdliner

(* --- experiment command ------------------------------------------------- *)

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced parameter ranges.")

let ids_arg =
  Arg.(
    value
    & pos_all string Tensor.Experiments.ids
    & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")

(* Resolves every id before running any, so a typo fails fast with the
   known ids instead of after minutes of earlier experiments. *)
let find_experiments ids =
  List.map
    (fun id ->
      match Tensor.Experiments.find id with
      | Some e -> e
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat " " Tensor.Experiments.ids);
          exit 2)
    ids

let experiment_cmd =
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const (fun quick ids ->
          List.iter
            (fun (e : Tensor.Experiments.t) -> e.run ~quick)
            (find_experiments ids))
      $ quick_flag $ ids_arg)

(* --- failover command --------------------------------------------------- *)

let failure_kind_conv =
  let parse = function
    | "app" | "application" -> Ok Orch.Controller.App_failure
    | "container" -> Ok Orch.Controller.Container_failure
    | "host" | "host-machine" -> Ok Orch.Controller.Host_failure
    | "host-network" | "network" -> Ok Orch.Controller.Host_network_failure
    | s -> Error (`Msg (Printf.sprintf "unknown failure kind %S" s))
  in
  Arg.conv (parse, Orch.Controller.pp_failure_kind)

let failover_cmd =
  let kind =
    Arg.(
      value
      & opt failure_kind_conv Orch.Controller.Container_failure
      & info [ "kind"; "k" ] ~docv:"KIND"
          ~doc:"app | container | host | host-network")
  in
  let run kind =
    let rows = Tensor.Exp_table1.run ~kinds:[ kind ] () in
    Tensor.Exp_table1.print rows;
    List.iter
      (fun (r : Tensor.Exp_table1.timeline) ->
        if r.peer_session_drops > 0 || r.peer_routes_lost > 0 then begin
          Printf.eprintf "NSR FAILED: peer observed the outage\n";
          exit 1
        end)
      rows;
    print_endline "\nNSR verified: the remote AS observed zero downtime."
  in
  Cmd.v
    (Cmd.info "failover" ~doc:"Run one failure scenario and verify NSR.")
    Term.(const run $ kind)

(* --- cdf command ----------------------------------------------------------- *)

let cdf_cmd =
  let links =
    Arg.(value & opt int 6000 & info [ "links" ] ~doc:"Population size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v
    (Cmd.info "cdf" ~doc:"Sample the Figure 7(a) traffic population.")
    Term.(
      const (fun links seed ->
          Tensor.Exp_fig7.print_cdf (Tensor.Exp_fig7.run_cdf ~links ~seed ()))
      $ links $ seed)

(* --- trace command ------------------------------------------------------------ *)

let kind_opt =
  Arg.(
    value
    & opt failure_kind_conv Orch.Controller.Container_failure
    & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"app | container | host | host-network")

let out_dir_opt =
  Arg.(
    value
    & opt string "telemetry-out"
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"Directory for the JSONL/CSV telemetry export.")

(* Runs a checked scenario with telemetry on (its buffers stay readable
   afterwards) and returns its health report; an unknown scenario
   exits 2. *)
let run_checked scenario kind =
  match Tensor.Check.run ~kind scenario with
  | Ok report -> report
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let trace_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "failover"
      & info [] ~docv:"SCENARIO"
          ~doc:(String.concat " | " Tensor.Check.scenarios))
  in
  let run scenario kind out =
    ignore (run_checked scenario kind);
    Format.printf "Causal spans (simulated time):@.@.%a@." Telemetry.Span.pp_tree
      ();
    Format.printf "Events: %d buffered@."
      (List.length (Telemetry.Bus.events ()));
    Telemetry.Control.export_dir out;
    Format.printf "Telemetry written to %s/ (spans.jsonl, events.jsonl, metrics.csv, metrics.json)@."
      out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one checked scenario with telemetry on; print the causal span \
          tree and export spans/events as JSONL. For a Perfetto trace of \
          the same run use $(b,check --trace-dir).")
    Term.(const run $ scenario $ kind_opt $ out_dir_opt)

(* --- metrics command ---------------------------------------------------------- *)

let metrics_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.")
  in
  let no_run =
    Arg.(
      value & flag
      & info [ "no-run" ]
          ~doc:"List registered metrics without running a scenario.")
  in
  let run json no_run kind =
    if not no_run then ignore (run_checked "failover" kind);
    if json then print_endline (Telemetry.Registry.to_json ())
    else begin
      Format.printf "%-34s %-10s %12s %16s@." "name" "kind" "count" "sum/value";
      List.iter
        (fun m ->
          match m with
          | Telemetry.Registry.Counter (n, c) ->
              Format.printf "%-34s %-10s %12d %16s@." n "counter"
                (Telemetry.Registry.value c) ""
          | Telemetry.Registry.Gauge (n, g) ->
              Format.printf "%-34s %-10s %12s %16g@." n "gauge" ""
                (Telemetry.Registry.gauge_value g)
          | Telemetry.Registry.Histogram (n, h) ->
              Format.printf "%-34s %-10s %12d %16g@." n "histogram"
                (Telemetry.Registry.hist_count h)
                (Telemetry.Registry.hist_sum h))
        (Telemetry.Registry.all ());
      Format.printf "@.%d metrics registered.@."
        (List.length (Telemetry.Registry.all ()))
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Exercise one failover and print every registered metric (counters, \
          gauges, histograms).")
    Term.(const run $ json $ no_run $ kind_opt)

(* --- check / health commands -------------------------------------------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the health report as JSON.")

let check_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "failover"
      & info [] ~docv:"SCENARIO" ~doc:"failover | planned | split-brain")
  in
  let trace_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dir" ] ~docv:"DIR"
          ~doc:
            "Record the causal event DAG and a simulated-time metric \
             series during the checked run; write \
             $(i,DIR)/trace.perfetto.json and $(i,DIR)/timeseries.jsonl.")
  in
  let run scenario kind json trace_dir =
    let sampler =
      match trace_dir with
      | None -> None
      | Some _ ->
          Causal.Recorder.reset ();
          Causal.Recorder.attach ();
          (* Subscribers survive Control.reset, so attaching before the
             run observes the whole scenario. *)
          Some (Causal.Series.attach ())
    in
    let report = run_checked scenario kind in
    if Option.is_some trace_dir then Causal.Recorder.detach ();
    Option.iter Causal.Series.detach sampler;
    (match (trace_dir, sampler) with
    | Some dir, Some s ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let perfetto = Filename.concat dir "trace.perfetto.json" in
        Causal.Perfetto.write ?critical:report.Monitor.Health.critical_path
          perfetto;
        Causal.Series.write s (Filename.concat dir "timeseries.jsonl");
        Format.printf
          "Trace artifacts written to %s/ (trace.perfetto.json: %d events; \
           timeseries.jsonl: %d samples)@."
          dir
          (Causal.Recorder.node_count ())
          (Causal.Series.sample_count s)
    | _ -> ());
    if json then print_endline (Monitor.Health.to_json report)
    else print_string (Monitor.Health.to_text report);
    if not (Monitor.Health.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run one scenario with the runtime verifier attached: every NSR \
          invariant (no peer-visible reset, stream continuity, held-ACK \
          safety, BFD bound, RIB convergence, split-brain exclusion, flap \
          absence, queue drain) is checked live against the telemetry bus. \
          Non-zero exit on any violation or SLO miss.")
    Term.(const run $ scenario $ kind_opt $ json_flag $ trace_dir)

let health_cmd =
  let run json =
    let reports =
      List.filter_map
        (fun s -> match Tensor.Check.run s with Ok r -> Some r | Error _ -> None)
        Tensor.Check.scenarios
    in
    if json then
      print_endline
        ("[" ^ String.concat "," (List.map Monitor.Health.to_json reports) ^ "]")
    else
      List.iter (fun r -> print_string (Monitor.Health.to_text r)) reports;
    if not (List.for_all Monitor.Health.ok reports) then exit 1
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Run every checked scenario and report aggregate invariant/SLO \
          health. Non-zero exit if any scenario is unhealthy.")
    Term.(const run $ json_flag)

(* --- causal command ----------------------------------------------------------- *)

let causal_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 string "failover"
      & info [] ~docv:"SCENARIO" ~doc:"failover | planned | split-brain")
  in
  let from_label =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"LABEL"
          ~doc:
            "Truncate the causal walk at the first ancestor whose label \
             matches (exact or dotted prefix, e.g. $(b,bfd) matches \
             $(b,bfd.detect)).")
  in
  let to_label =
    Arg.(
      value
      & opt (some string) None
      & info [ "to" ] ~docv:"LABEL"
          ~doc:
            "Re-anchor the path endpoint at the last in-window event \
             whose label matches, instead of the event that closed the \
             span.")
  in
  let run scenario kind from_label to_label json =
    (match Tensor.Check.root_span scenario with
    | Some _ -> ()
    | None ->
        Printf.eprintf
          "scenario %S records no recovery root span (try: failover | \
           planned | split-brain)\n"
          scenario;
        exit 2);
    Causal.Recorder.reset ();
    Causal.Recorder.attach ();
    let report = run_checked scenario kind in
    Causal.Recorder.detach ();
    let name = Option.get (Tensor.Check.root_span scenario) in
    (match Causal.Critical.of_span ?from_label ?to_label ~name () with
    | Error msg ->
        Printf.eprintf "critical path: %s\n" msg;
        exit 2
    | Ok cp ->
        if json then print_endline (Causal.Critical.to_json cp)
        else begin
          Format.printf
            "Recovery critical path of %S (%d traced events, %d on path):@.@."
            scenario
            (Causal.Recorder.node_count ())
            cp.Causal.Critical.events;
          print_string (Causal.Critical.to_text cp)
        end);
    if not (Monitor.Health.ok report) then begin
      Printf.eprintf "note: the checked run itself was UNHEALTHY\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Run one checked scenario with the causal event recorder attached \
          and print the critical path of its recovery span: the handler \
          chain that bounded recovery, decomposed into per-label segments \
          whose durations sum exactly to the span duration. $(b,--from) / \
          $(b,--to) restrict the walk to a label window.")
    Term.(const run $ scenario $ kind_opt $ from_label $ to_label $ json_flag)

(* --- fuzz command ------------------------------------------------------------- *)

let fuzz_replay path =
  let replays =
    if Sys.is_directory path then Chaos.Corpus.replay_dir path
    else [ Chaos.Corpus.replay_file path ]
  in
  if replays = [] then print_endline (path ^ ": empty corpus, nothing to replay");
  let failed = ref 0 in
  List.iter
    (fun (r : Chaos.Corpus.replay) ->
      if Chaos.Corpus.replay_ok r then begin
        match r.outcome with
        | Some o ->
            Printf.printf "PASS %s (events=%d digest=%s)\n" r.name
              o.Chaos.Runner.events o.Chaos.Runner.digest
        | None -> ()
      end
      else begin
        incr failed;
        Printf.printf "FAIL %s\n" r.name;
        (match r.parse_error with
        | Some e -> Printf.printf "  parse error: %s\n" e
        | None -> ());
        (match r.outcome with
        | Some o ->
            if not r.deterministic then
              Printf.printf
                "  non-deterministic replay: digests differ across two runs\n";
            if not (Chaos.Runner.ok o) then print_string (Chaos.Runner.summary o)
        | None -> ())
      end)
    replays;
  Printf.printf "%d corpus entries replayed, %d failed\n" (List.length replays)
    !failed;
  if !failed > 0 then exit 1

let fuzz_descriptor line =
  match Chaos.Descriptor.of_string line with
  | Error e ->
      Printf.eprintf "bad descriptor: %s\n" e;
      exit 2
  | Ok d ->
      let o = Chaos.Runner.run d in
      print_string (Chaos.Runner.summary o);
      if not (Chaos.Runner.ok o) then exit 1

let fuzz_campaign ~runs ~seed ~shrink ~corpus ~jobs ~verbose =
  (* Progress arrives in run order whatever [jobs] is (Par.Pool delivers
     the contiguous completed prefix), so everything on stdout — verbose
     per-run lines with their digests included — is byte-identical from
     --jobs 1 to --jobs N. Pool accounting goes to stderr only. *)
  let progress i (o : Chaos.Runner.outcome) =
    if verbose then
      Printf.printf "run %d seed=%d %s events=%d digest=%s\n%!" i
        o.desc.Chaos.Descriptor.seed
        (if Chaos.Runner.ok o then "ok" else "FAIL")
        o.events o.digest
    else if (i + 1) mod 50 = 0 then Printf.printf "... %d runs\n%!" (i + 1)
  in
  let c =
    Chaos.Fuzz.run ~progress ~shrink
      ?corpus_dir:(if shrink then Some corpus else None)
      ~jobs ~runs ~seed ()
  in
  List.iter
    (fun (f : Chaos.Fuzz.failure) ->
      Printf.printf "\nFAILURE at run %d:\n%s" f.index
        (Chaos.Runner.summary f.outcome);
      (match f.shrunk with
      | Some r ->
          Printf.printf "shrunk (%d runs, %d faults removed):\n%s" r.runs_used
            r.removed_faults
            (Chaos.Runner.summary r.outcome)
      | None -> ());
      match f.saved with
      | Some path -> Printf.printf "repro written to %s\n" path
      | None -> ())
    c.Chaos.Fuzz.failures;
  Printf.printf "\n%d fuzz runs (campaign seed %d): %d failures, %d events checked\n"
    c.Chaos.Fuzz.runs seed
    (List.length c.Chaos.Fuzz.failures)
    c.Chaos.Fuzz.events_total;
  (if jobs > 1 then begin
     let st = c.Chaos.Fuzz.pool in
     Printf.eprintf "pool: %d domains, %.2fs elapsed, %.2fx speedup\n" st.jobs
       st.elapsed_s (Par.Pool.speedup st);
     List.iter
       (fun (d : Par.Pool.domain_stat) ->
         Printf.eprintf
           "  domain %d: %d runs, %.2fs busy, %d sim events (%.0f ev/s)\n"
           d.domain_index d.tasks d.busy_s d.sim_events
           (if d.busy_s > 0.0 then float_of_int d.sim_events /. d.busy_s
            else 0.0))
       st.domains
   end);
  if not (Chaos.Fuzz.campaign_ok c) then exit 1

let fuzz_cmd =
  let runs =
    Arg.(value & opt int 100 & info [ "runs"; "n" ] ~doc:"Number of fuzz runs.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~doc:"Campaign seed.")
  in
  let corpus =
    Arg.(
      value & opt string "corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory shrunk repros are written to (with $(b,--shrink)).")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize each failure and write the repro to the corpus dir.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Replay a corpus entry (or every entry of a directory) twice, \
             verifying zero violations and digest-identical telemetry, \
             instead of fuzzing.")
  in
  let descriptor =
    Arg.(
      value
      & opt (some string) None
      & info [ "descriptor" ] ~docv:"LINE"
          ~doc:"Run one literal descriptor line and print its outcome.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-run progress.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run the campaign on $(docv) OCaml domains. Output (summary, \
             per-run digests, shrunk repros) is byte-identical to \
             $(b,--jobs 1); only wall time changes. Pool accounting is \
             printed to stderr.")
  in
  let run runs seed corpus shrink replay descriptor jobs verbose =
    match (replay, descriptor) with
    | Some path, _ -> fuzz_replay path
    | None, Some line -> fuzz_descriptor line
    | None, None -> fuzz_campaign ~runs ~seed ~shrink ~corpus ~jobs ~verbose
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Seeded chaos fuzzing: randomized topologies and fault schedules \
          (kills, planned switchovers, link flaps, loss bursts, BFD timer \
          perturbation, peer RST/Cease) executed under every NSR invariant \
          checker plus end-state RIB digests. Failures shrink to a one-line \
          replayable descriptor. Non-zero exit on any violation.")
    Term.(
      const run $ runs $ seed $ corpus $ shrink $ replay $ descriptor $ jobs
      $ verbose)

(* --- profile command ---------------------------------------------------------- *)

let profile_cmd =
  let experiment =
    Arg.(
      value
      & pos 0 string "fig5a"
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see $(b,list)).")
  in
  let out =
    Arg.(
      value
      & opt string "profile-out"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Directory for folded-stack and speedscope output.")
  in
  let top =
    Arg.(
      value & opt int 15
      & info [ "top"; "k" ] ~docv:"K" ~doc:"Rows in the handler cost table.")
  in
  let run experiment out top quick =
    let e = List.hd (find_experiments [ experiment ]) in
    Telemetry.Control.reset ();
    Telemetry.Control.set_enabled true;
    Prof.Profiler.attach ();
    e.run ~quick;
    Prof.Profiler.detach ();
    Telemetry.Control.set_enabled false;
    let total_ev = Prof.Profiler.total_events () in
    if total_ev = 0 then
      Printf.printf
        "\n(%s dispatched no engine events — nothing to profile; the folded \
         output below is span-only)\n"
        experiment
    else begin
      let total_wall = Prof.Profiler.total_wall_s () in
      let total_alloc = Prof.Profiler.total_alloc_bytes () in
      Printf.printf
        "\nEngine cost, top %d of %d labels by wall time (%d events, %.3fs \
         wall, %.1f MB allocated, %d minor / %d major GCs):\n\n"
        top
        (List.length (Prof.Profiler.stats ()))
        total_ev total_wall (total_alloc /. 1e6)
        (Prof.Profiler.total_minor_gcs ())
        (Prof.Profiler.total_major_gcs ());
      Printf.printf "%-18s %10s %10s %6s %12s %12s %12s\n" "label" "events"
        "wall ms" "%" "bytes/event" "dwell avg" "dwell max";
      List.iter
        (fun (st : Prof.Profiler.stat) ->
          Printf.printf "%-18s %10d %10.3f %5.1f%% %12.0f %11.3fs %11.3fs\n"
            st.label st.events (st.wall_s *. 1e3)
            (if total_wall > 1e-9 then 100.0 *. st.wall_s /. total_wall
             else 0.0)
            (st.alloc_bytes /. float_of_int (max 1 st.events))
            (st.dwell_s /. float_of_int (max 1 st.events))
            st.dwell_max_s)
        (Prof.Profiler.top ~by:Prof.Profiler.By_wall top)
    end;
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    Prof.Export.write_folded
      (Filename.concat out "engine.folded")
      (Prof.Export.folded_wall ());
    Prof.Export.write_folded
      (Filename.concat out "engine_allocs.folded")
      (Prof.Export.folded_alloc ());
    Prof.Export.write_folded
      (Filename.concat out "spans.folded")
      (Prof.Export.folded_spans ());
    Prof.Export.write_speedscope
      ~name:("tensor " ^ experiment)
      (Filename.concat out "profile.speedscope.json");
    Printf.printf
      "\nProfiles written to %s/: engine.folded, engine_allocs.folded, \
       spans.folded (flamegraph.pl input), profile.speedscope.json \
       (speedscope.app)\n"
      out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one experiment with the engine profiler attached: per-label \
          wall time, allocation, GC and queue-dwell attribution, exported \
          as folded stacks (flamegraph.pl) and speedscope JSON. The \
          profiler observes dispatch only — simulated results and replay \
          digests are identical with it on or off.")
    Term.(const run $ experiment $ out $ top $ quick_flag)

(* --- fleet command ----------------------------------------------------------- *)

let fleet_spec ~hosts ~regions ~instances ~seed ~campaign ~window ~ctrl_delay =
  match Chaos.Descriptor.faults_of_string campaign with
  | Error e ->
      Printf.eprintf "bad campaign: %s\n" e;
      exit 2
  | Ok faults -> (
      match Fleet.Campaign.check_faults faults with
      | Error e ->
          Printf.eprintf "bad campaign: %s\n" e;
          exit 2
      | Ok () ->
          {
            Fleet.Campaign.default_spec with
            Fleet.Campaign.hosts;
            regions;
            instances;
            seed;
            faults;
            window_ms =
              (if window > 0 then window
               else Fleet.Campaign.default_spec.Fleet.Campaign.window_ms);
            ctrl_delay_us = ctrl_delay;
          })

let write_slo_report path (o : Fleet.Campaign.outcome) =
  let oc = open_out path in
  output_string oc (Fleet.Slo.to_json o.Fleet.Campaign.slo);
  output_char oc '\n';
  close_out oc;
  Printf.printf "SLO report written to %s\n" path

let fleet_dump_events path =
  (* Valid for --jobs 1 only: the bus is domain-local, and with one job
     the campaign ran on this domain, so its buffers are still here. *)
  let buf = Buffer.create 262_144 in
  Telemetry.Bus.to_jsonl buf;
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "telemetry written to %s\n" path

let fleet_replicated spec ~jobs ~json ~slo_out ~events_out =
  (* [--jobs N] runs N replicas of the same campaign across N domains
     and demands byte-identical replay digests — the determinism the
     nightly job asserts. Each replica is self-contained (domain-local
     telemetry), so a digest split is a real nondeterminism bug. *)
  let runs = max 1 jobs in
  let results, _ =
    Par.Pool.run ~jobs runs (fun _ -> Fleet.Campaign.run spec)
  in
  let o = results.(0) in
  let split =
    Array.exists
      (fun (r : Fleet.Campaign.outcome) ->
        not (String.equal r.Fleet.Campaign.digest o.Fleet.Campaign.digest))
      results
  in
  if json then print_endline (Fleet.Slo.to_json o.Fleet.Campaign.slo)
  else print_string (Fleet.Campaign.summary o);
  if runs > 1 then
    if split then
      Array.iteri
        (fun i (r : Fleet.Campaign.outcome) ->
          Printf.printf "DIGEST MISMATCH: replica %d digest=%s\n" i
            r.Fleet.Campaign.digest)
        results
    else
      Printf.printf "%d replicas on %d domains: digests identical\n" runs jobs;
  Option.iter (fun path -> write_slo_report path o) slo_out;
  Option.iter
    (fun path ->
      if jobs <= 1 then fleet_dump_events path
      else Printf.eprintf "--events-out requires --jobs 1; skipped\n")
    events_out;
  if split || not (Fleet.Campaign.ok o) then exit 1

let fleet_sweep spec ~jobs ~json =
  (* Controller-centralization sweep: the same campaign under per-host,
     regional and global controller placement (uplink delay), reporting
     convergence and the failover-time distribution. *)
  let variants =
    [| ("per-host", 50); ("regional", 500); ("global", 5_000) |]
  in
  let results, _ =
    Par.Pool.run ~jobs (Array.length variants) (fun i ->
        Fleet.Campaign.run
          { spec with Fleet.Campaign.ctrl_delay_us = snd variants.(i) })
  in
  if json then begin
    print_string "[";
    Array.iteri
      (fun i (o : Fleet.Campaign.outcome) ->
        if i > 0 then print_string ",";
        Printf.printf
          "{\"controller\":%S,\"ctrl_delay_us\":%d,\"convergence_s\":%.3f,\
           \"digest\":%S,\"pass\":%b,\"slo\":%s}"
          (fst variants.(i))
          (snd variants.(i))
          o.Fleet.Campaign.convergence_s o.Fleet.Campaign.digest
          (Fleet.Campaign.ok o)
          (Fleet.Slo.to_json o.Fleet.Campaign.slo))
      results;
    print_endline "]"
  end
  else
    Array.iteri
      (fun i (o : Fleet.Campaign.outcome) ->
        let fo = o.Fleet.Campaign.slo.Fleet.Slo.failover_s in
        Printf.printf
          "%-9s ctrl=%5dus convergence=%6.2fs failover p95=%.3fs max=%.3fs \
           events=%d %s digest=%s\n"
          (fst variants.(i))
          (snd variants.(i))
          o.Fleet.Campaign.convergence_s
          (Fleet.Slo.percentile fo 0.95)
          (Fleet.Slo.percentile fo 1.0)
          o.Fleet.Campaign.events
          (if Fleet.Campaign.ok o then "PASS" else "FAIL")
          o.Fleet.Campaign.digest)
      results;
  if Array.exists (fun o -> not (Fleet.Campaign.ok o)) results then exit 1

let fleet_cmd =
  let hosts =
    Arg.(value & opt int 8 & info [ "hosts" ] ~doc:"Host machines in the fleet.")
  in
  let regions =
    Arg.(value & opt int 2 & info [ "regions" ] ~doc:"Regions (each with its own store).")
  in
  let instances =
    Arg.(
      value & opt int 20
      & info [ "instances"; "n" ]
          ~doc:"TENSOR instances (rounded up to replica pairs).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed"; "s" ] ~doc:"Engine seed.")
  in
  let campaign =
    Arg.(
      value
      & opt string Fleet.Campaign.default_campaign
      & info [ "campaign" ] ~docv:"TOKENS"
          ~doc:
            "Comma-separated fault tokens (chaos grammar): \
             $(b,host_kill\\@T), $(b,region_store_outage\\@T+D), \
             $(b,rolling_upgrade\\@T:K), $(b,kill.*\\@T), $(b,planned\\@T). \
             $(b,-) is the empty schedule.")
  in
  let window =
    Arg.(
      value & opt int 0
      & info [ "window" ] ~docv:"MS"
          ~doc:"Minimum fault window (auto-sized to fit the schedule).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Without $(b,--sweep): run $(docv) replicas of the campaign on \
             $(docv) domains and assert byte-identical digests. With \
             $(b,--sweep): parallelize the sweep variants.")
  in
  let sweep =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Controller-centralization sweep: per-host / regional / global \
             controller placement, reporting convergence and failover \
             distribution per variant.")
  in
  let ctrl_delay =
    Arg.(
      value & opt int 500
      & info [ "ctrl-delay" ] ~docv:"US"
          ~doc:"Controller uplink one-way delay in microseconds.")
  in
  let slo_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"PATH" ~doc:"Write the SLO report JSON here.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the SLO report as JSON.")
  in
  let events_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"PATH"
          ~doc:"Write the run's telemetry JSONL here (requires --jobs 1).")
  in
  let run hosts regions instances seed campaign window jobs sweep ctrl_delay
      slo_out json events_out =
    let spec =
      fleet_spec ~hosts ~regions ~instances ~seed ~campaign ~window ~ctrl_delay
    in
    if sweep then fleet_sweep spec ~jobs ~json
    else fleet_replicated spec ~jobs ~json ~slo_out ~events_out
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Fleet-scale fault campaigns: hundreds of TENSOR instances across \
          regions under correlated host kills, regional store outages and \
          bounded-concurrency rolling upgrades, verified by all ten runtime \
          checkers (including $(b,fleet_slo)) with a fleet-wide SLO report. \
          Replays are byte-identical across $(b,--jobs) settings.")
    Term.(
      const run $ hosts $ regions $ instances $ seed $ campaign $ window
      $ jobs $ sweep $ ctrl_delay $ slo_out $ json $ events_out)

(* --- list command ------------------------------------------------------------ *)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List experiment ids.")
    Term.(const (fun () -> List.iter print_endline Tensor.Experiments.ids) $ const ())

let () =
  let doc = "TENSOR (SIGCOMM '23) reproduction toolkit" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "tensor-cli" ~version:"1.0.0" ~doc)
          [ experiment_cmd; failover_cmd; trace_cmd; metrics_cmd; cdf_cmd;
            check_cmd; health_cmd; causal_cmd; fuzz_cmd; fleet_cmd;
            profile_cmd; list_cmd ]))
