(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4) from seeded simulation.

   Usage:
     dune exec bench/main.exe              # everything, full ranges
     dune exec bench/main.exe -- --quick   # everything, reduced ranges
     dune exec bench/main.exe -- fig6a table1 ...   # a subset
     dune exec bench/main.exe -- --csv-dir out fig6a  # also write CSVs
     dune exec bench/main.exe -- --telemetry-dir out fig6a  # + telemetry
       export and out/timeseries.jsonl, the simulated-time metric series
       (one JSONL row per simulated second, see lib/trace)
     dune exec bench/main.exe -- --emit-bench BENCH_rev.json  # perf snapshot
       (diff two snapshots with: dune exec bench/trend.exe -- OLD NEW;
        gate a series with: dune exec bench/trend.exe -- --gate OLD... NEW)

   Experiment ids: those of Tensor.Experiments (fig5a fig5b fig6a fig6b
   fig6c fig6d table1 multias scale ablations fig7a fig7b table2), the
   same registry `tensor-cli experiment` runs. Every simulated output is
   deterministic (fixed seeds), so stdout repeats byte for byte apart
   from the `wall` lines; CI diffs `--quick` against bench/golden/quick.txt.
   Per-label engine cost is `tensor-cli profile ID`; the multi-domain
   campaign equivalence is `tensor-cli fuzz --jobs N`. *)

let quick = ref false
let telemetry_dir = ref None
let emit_bench = ref None

(* Per-experiment measurements for the --emit-bench snapshot. *)
type bench_row = {
  br_id : string;
  br_engine : bool; (* false: the throughput fields are omitted *)
  br_wall : float;
  br_events : int;
  br_alloc_bytes : float;
  br_minor_gcs : int;
  br_major_gcs : int;
}

let bench_rows : bench_row list ref = ref []

(* Snapshot schema v3. v1 carried only wall_s/sim_events/sim_events_per_s;
   v2 added allocation + GC accounting and the non_sim marker (throughput
   fields omitted for those experiments); v3 renames v2's misnamed
   allocs_per_event (it always held bytes) to alloc_bytes_per_event and
   drops the subsystems and parallel sections. trend.exe reads only id
   and wall_s, so it accepts all three. *)
let write_bench_snapshot file ~total_wall =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"schema_version\":3,\"quick\":%b,\"experiments\":["
    !quick;
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
    (List.rev !bench_rows);
  Printf.bprintf buf "],\"total_wall_s\":%.3f,\"metrics\":%s}" total_wall
    (Telemetry.Registry.to_json ());
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_flags acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        strip_flags acc rest
    | "--csv-dir" :: dir :: rest ->
        Tensor.Report.set_csv_dir (Some dir);
        strip_flags acc rest
    | "--telemetry-dir" :: dir :: rest ->
        telemetry_dir := Some dir;
        Telemetry.Control.set_enabled true;
        strip_flags acc rest
    | "--emit-bench" :: file :: rest ->
        emit_bench := Some file;
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] args in
  let selected =
    match args with
    | [] -> Tensor.Experiments.all
    | ids ->
        List.map
          (fun id ->
            match
              List.find_opt
                (fun (e : Tensor.Experiments.t) -> String.equal e.id id)
                Tensor.Experiments.all
            with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" id
                  (String.concat " " Tensor.Experiments.ids);
                exit 2)
          ids
  in
  Format.printf
    "TENSOR reproduction — benchmark harness (%s mode)@."
    (if !quick then "quick" else "full");
  let t0 = Prof.Clock.now_s () in
  (* The series sampler is a bus subscriber that schedules nothing, so
     attaching it moves no simulated output. *)
  let sampler =
    Option.map (fun dir -> (dir, Causal.Series.attach ())) !telemetry_dir
  in
  List.iter
    (fun (e : Tensor.Experiments.t) ->
      let t = Prof.Clock.now_s () in
      let e0 = Sim.Engine.global_processed_events () in
      let a0 = Gc.allocated_bytes () in
      let g0 = Gc.quick_stat () in
      e.run ~quick:!quick;
      let wall = Prof.Clock.now_s () -. t in
      let g1 = Gc.quick_stat () in
      bench_rows :=
        {
          br_id = e.id;
          br_engine = e.engine;
          br_wall = wall;
          br_events = Sim.Engine.global_processed_events () - e0;
          br_alloc_bytes = Gc.allocated_bytes () -. a0;
          br_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          br_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !bench_rows;
      Format.printf "@.[%s done in %.1fs wall]@." e.id wall)
    selected;
  let total_wall = Prof.Clock.now_s () -. t0 in
  Format.printf "@.All selected experiments done in %.1fs wall.@." total_wall;
  (match !emit_bench with
  | Some file ->
      write_bench_snapshot file ~total_wall;
      Format.printf "Bench snapshot written to %s@." file
  | None -> ());
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
