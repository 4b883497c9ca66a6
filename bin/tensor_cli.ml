(* tensor-cli: drive the TENSOR reproduction from the command line.

     tensor-cli experiment --quick fig6a table1  # regenerate paper artifacts
     tensor-cli experiment --csv-dir DIR          # + one CSV per table
     tensor-cli experiment --telemetry-dir DIR    # + telemetry export
     tensor-cli experiment --emit-bench FILE      # + perf snapshot (bench/trend.exe)
     tensor-cli check failover --kind host        # checked scenarios, health reports
     tensor-cli check failover --out DIR          # + every artifact of the run
     tensor-cli profile fig5a --out DIR           # engine cost attribution
     tensor-cli fleet --sweep                     # controller-placement sweep
     tensor-cli list                              # experiment ids

   Experiment ids and parameters come from Tensor.Experiments; check
   runs the checked scenarios of Tensor.Check, which also attaches the
   observers and writes the artifacts for --out. Every simulated output
   is deterministic (fixed seeds), so experiment stdout repeats byte for
   byte apart from the `wall` lines; CI diffs `experiment --quick`
   against bench/golden/quick.txt. *)

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

(* One experiment's measurements for the --emit-bench snapshot. *)
type bench_row = {
  br_id : string;
  br_engine : bool; (* false: the throughput fields are omitted *)
  br_wall : float;
  br_events : int;
  br_alloc_bytes : float;
  br_minor_gcs : int;
  br_major_gcs : int;
}

(* Snapshot schema v3. v1 carried only wall_s/sim_events/sim_events_per_s;
   v2 added allocation + GC accounting and the non_sim marker (throughput
   fields omitted for those experiments); v3 renames v2's misnamed
   allocs_per_event (it always held bytes) to alloc_bytes_per_event and
   drops the subsystems and parallel sections. bench/trend.exe reads only
   id and wall_s, so it accepts all three. *)
let write_bench_snapshot file ~quick ~total_wall rows =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"schema_version\":3,\"quick\":%b,\"experiments\":["
    quick;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"id\":\"%s\",\"wall_s\":%.6f,\"non_sim\":%b"
        (Telemetry.Event.json_escape r.br_id)
        r.br_wall (not r.br_engine);
      if r.br_engine then
        Printf.bprintf buf
          ",\"sim_events\":%d,\"sim_events_per_s\":%.1f,\"alloc_bytes_per_event\":%.1f"
          r.br_events
          (if r.br_wall > 1e-9 then float_of_int r.br_events /. r.br_wall
           else 0.0)
          (if r.br_events > 0 then
             r.br_alloc_bytes /. float_of_int r.br_events
           else 0.0);
      Printf.bprintf buf
        ",\"alloc_bytes\":%.0f,\"minor_gcs\":%d,\"major_gcs\":%d}"
        r.br_alloc_bytes r.br_minor_gcs r.br_major_gcs)
    rows;
  Printf.bprintf buf "],\"total_wall_s\":%.3f,\"metrics\":%s}" total_wall
    (Telemetry.Registry.to_json ());
  Buffer.add_char buf '\n';
  Telemetry.Control.write_file file (Buffer.contents buf)

let run_one ~quick (e : Tensor.Experiments.t) =
  let t = Prof.Clock.now_s () in
  let e0 = Sim.Engine.global_processed_events () in
  let a0 = Gc.allocated_bytes () in
  let g0 = Gc.quick_stat () in
  e.run ~quick;
  let wall = Prof.Clock.now_s () -. t in
  let g1 = Gc.quick_stat () in
  Format.printf "@.[%s done in %.1fs wall]@." e.id wall;
  {
    br_id = e.id;
    br_engine = e.engine;
    br_wall = wall;
    br_events = Sim.Engine.global_processed_events () - e0;
    br_alloc_bytes = Gc.allocated_bytes () -. a0;
    br_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    br_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let run_experiments quick csv_dir telemetry_dir emit_bench ids =
  let selected = find_experiments ids in
  Tensor.Report.set_csv_dir csv_dir;
  if telemetry_dir <> None then Telemetry.Control.set_enabled true;
  Format.printf "TENSOR reproduction — benchmark harness (%s mode)@."
    (if quick then "quick" else "full");
  let t0 = Prof.Clock.now_s () in
  (* The series sampler is a bus subscriber that schedules nothing, so
     attaching it moves no simulated output. *)
  let sampler =
    Option.map (fun dir -> (dir, Causal.Series.attach ())) telemetry_dir
  in
  let rows = List.map (run_one ~quick) selected in
  let total_wall = Prof.Clock.now_s () -. t0 in
  Format.printf "@.All selected experiments done in %.1fs wall.@." total_wall;
  Option.iter
    (fun file ->
      write_bench_snapshot file ~quick ~total_wall rows;
      Format.printf "Bench snapshot written to %s@." file)
    emit_bench;
  match sampler with
  | Some (dir, s) ->
      Causal.Series.detach s;
      Telemetry.Control.export_dir dir;
      Telemetry.Control.write_file
        (Filename.concat dir "timeseries.jsonl")
        (Causal.Series.to_jsonl s);
      Format.printf
        "Telemetry written to %s/ (timeseries.jsonl: %d samples, %d quiet \
         windows skipped)@."
        dir (Causal.Series.sample_count s) (Causal.Series.skipped_windows s)
  | None -> ()

let experiment_cmd =
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR"
          ~doc:"Also write every printed table as a CSV file in $(docv).")
  in
  let telemetry_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-dir" ] ~docv:"DIR"
          ~doc:
            "Record telemetry for the run and export it to $(docv): \
             metrics.csv, metrics.json, events.jsonl, spans.jsonl and \
             timeseries.jsonl, the metric series sampled once per \
             simulated second.")
  in
  let emit_bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-bench" ] ~docv:"FILE"
          ~doc:
            "Write a performance snapshot to $(docv): per-experiment wall \
             time, engine events, allocation and GC counts, plus the \
             metrics registry. Compare snapshots with bench/trend.exe.")
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const run_experiments $ quick_flag $ csv_dir $ telemetry_dir
      $ emit_bench $ ids_arg)

(* --- check command ------------------------------------------------------ *)

let failure_kind_conv =
  let parse = function
    | "app" | "application" -> Ok Orch.Controller.App_failure
    | "container" -> Ok Orch.Controller.Container_failure
    | "host" | "host-machine" -> Ok Orch.Controller.Host_failure
    | "host-network" | "network" -> Ok Orch.Controller.Host_network_failure
    | s -> Error (`Msg (Printf.sprintf "unknown failure kind %S" s))
  in
  Arg.conv (parse, Orch.Controller.pp_failure_kind)

let kind_opt =
  Arg.(
    value
    & opt failure_kind_conv Orch.Controller.Container_failure
    & info [ "kind"; "k" ] ~docv:"KIND" ~doc:"app | container | host | host-network")

(* --- check command ------------------------------------------------------------- *)

(* Status lines go to stderr, so stdout stays byte-stable with --out. *)
let artifacts_written dir = Printf.eprintf "Artifacts written to %s/\n%!" dir

let check_cmd =
  let scenarios =
    Arg.(
      value
      & pos_all
          (enum
             (("split_brain", "split-brain")
             :: List.map (fun s -> (s, s)) Tensor.Check.scenarios))
          [ "failover" ]
      & info [] ~docv:"SCENARIO"
          ~doc:(String.concat " | " Tensor.Check.scenarios))
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print each health report as one line of JSON.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:
            "Attach the causal recorder, the metric-series sampler and the \
             engine profiler, and write each scenario's artifacts to \
             $(i,DIR)/$(i,SCENARIO)/: health.json (verdict, critical path \
             and cost ledger), spans.jsonl, spans.txt, events.jsonl, \
             metrics.csv, metrics.json, trace.perfetto.json, \
             timeseries.jsonl and the four $(b,profile) files.")
  in
  let run scenarios kind json out =
    let healthy =
      List.fold_left
        (fun healthy scenario ->
          match Tensor.Check.run ~kind ?out scenario with
          | Error msg ->
              Printf.eprintf "%s\n" msg;
              exit 2
          | Ok report ->
              Option.iter
                (fun dir -> artifacts_written (Filename.concat dir scenario))
                out;
              if json then print_endline (Monitor.Health.to_json report)
              else print_string (Monitor.Health.to_text report);
              healthy && Monitor.Health.ok report)
        true scenarios
    in
    if not healthy then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run checked scenarios with the runtime verifier attached: every \
          NSR invariant (no peer-visible reset, stream continuity, held-ACK \
          safety, BFD bound, RIB convergence, split-brain exclusion, flap \
          absence, queue drain) is checked live against the telemetry bus. \
          Non-zero exit on any violation or SLO miss.")
    Term.(const run $ scenarios $ kind_opt $ json $ out)

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

let fuzz_descriptor ?out line =
  match Chaos.Descriptor.of_string line with
  | Error e ->
      Printf.eprintf "bad descriptor: %s\n" e;
      exit 2
  | Ok d ->
      let o = Chaos.Runner.run ?out d in
      Option.iter artifacts_written out;
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
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:
            "With $(b,--descriptor): observe the run and write its \
             artifacts to $(i,DIR), the set $(b,check --out) writes.")
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
  let run runs seed corpus shrink replay descriptor jobs verbose out =
    match (replay, descriptor, out) with
    | None, Some line, _ -> fuzz_descriptor ?out line
    | _, _, Some _ ->
        prerr_endline "--out applies to --descriptor only";
        exit 2
    | Some path, _, _ -> fuzz_replay path
    | None, None, _ -> fuzz_campaign ~runs ~seed ~shrink ~corpus ~jobs ~verbose
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
      $ verbose $ out)

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
    Prof.Export.write_dir ~name:("tensor " ^ experiment) out;
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

let fleet_replicated spec ~jobs ~json ~out =
  (* [--jobs N] runs N replicas of the same campaign across N domains
     and demands byte-identical replay digests — the determinism the
     nightly job asserts. Each replica is self-contained (domain-local
     telemetry), so a digest split is a real nondeterminism bug. With
     [--out], replica 0 runs observed and the rest bare, so the same
     check also proves observation digest-neutral. *)
  let runs = max 1 jobs in
  let results, _ =
    Par.Pool.run ~jobs runs (fun i ->
        Fleet.Campaign.run ?out:(if i = 0 then out else None) spec)
  in
  let o = results.(0) in
  let split =
    Array.exists
      (fun (r : Fleet.Campaign.outcome) ->
        not (String.equal r.Fleet.Campaign.digest o.Fleet.Campaign.digest))
      results
  in
  Option.iter artifacts_written out;
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
  if split || not (Fleet.Campaign.ok o) then exit 1

let fleet_sweep spec ~jobs ~json ~out =
  (* Controller-centralization sweep: the same campaign under per-host,
     regional and global controller placement (uplink delay), reporting
     convergence and the failover-time distribution. *)
  let variants =
    [| ("per-host", 50); ("regional", 500); ("global", 5_000) |]
  in
  let results, _ =
    Par.Pool.run ~jobs (Array.length variants) (fun i ->
        Fleet.Campaign.run
          ?out:(if i = 0 then out else None)
          { spec with Fleet.Campaign.ctrl_delay_us = snd variants.(i) })
  in
  Option.iter artifacts_written out;
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
             $(b,host_kill@T), $(b,region_store_outage@T+D), \
             $(b,rolling_upgrade@T:K), $(b,kill.*@T), $(b,planned@T). \
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
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the SLO report as JSON.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:
            "Run replica 0 (with $(b,--sweep): the first variant) observed \
             and write its artifacts to $(i,DIR): slo.json, events.jsonl and \
             the rest of the set $(b,check --out) writes. The other runs are \
             bare, so the replica digest check also proves observation \
             digest-neutral.")
  in
  let run hosts regions instances seed campaign window jobs sweep ctrl_delay
      json out =
    let spec =
      fleet_spec ~hosts ~regions ~instances ~seed ~campaign ~window ~ctrl_delay
    in
    if sweep then fleet_sweep spec ~jobs ~json ~out
    else fleet_replicated spec ~jobs ~json ~out
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
      $ jobs $ sweep $ ctrl_delay $ json $ out)

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
          [ experiment_cmd; check_cmd; fuzz_cmd; fleet_cmd; profile_cmd;
            list_cmd ]))
