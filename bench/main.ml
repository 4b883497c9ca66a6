(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4), plus Bechamel micro-benchmarks of the hot
   paths.

   Usage:
     dune exec bench/main.exe              # everything, full ranges
     dune exec bench/main.exe -- --quick   # everything, reduced ranges
     dune exec bench/main.exe -- fig6a table1 ...   # a subset
     dune exec bench/main.exe -- --csv-dir out fig6a  # also write CSVs
     dune exec bench/main.exe -- --telemetry-dir out fig6a  # + telemetry export
     dune exec bench/main.exe -- --timeseries ts.jsonl fig6a  # simulated-time
       metric series (one JSONL row per simulated second, see lib/trace)
     dune exec bench/main.exe -- --emit-bench BENCH_rev.json  # perf snapshot
       (diff two snapshots with: dune exec bench/trend.exe -- OLD NEW;
        gate a series with: dune exec bench/trend.exe -- --gate OLD... NEW)
     dune exec bench/main.exe -- --profile --emit-bench BENCH_rev.json
       # + per-subsystem engine cost breakdowns in the snapshot

     dune exec bench/main.exe -- --jobs 4 campaign  # multi-seed chaos
       campaign across 4 OCaml domains: checks --jobs 1 / --jobs N output
       equality and reports per-domain throughput + true speedup in the
       snapshot's "parallel" section

   Experiment ids: the paper experiments of Tensor.Experiments (fig5a
   fig5b fig6a fig6b fig6c fig6d table1 multias scale ablations fig7a
   fig7b table2, also run by `tensor-cli experiment`), then the
   bench-only micro and campaign (campaign is opt-in: it is excluded
   from the default set so seed-vs-PR comparisons keep their experiment
   list).
   Simulated measurements are deterministic (fixed seeds); only `micro`
   and the campaign wall times measure host wall-clock. *)

let quick = ref false
let telemetry_dir = ref None
let emit_bench = ref None
let profile = ref false
let timeseries = ref None
let jobs = ref 1

(* Per-experiment measurements for the --emit-bench snapshot. *)
type bench_row = {
  br_id : string;
  br_engine : bool; (* false: the throughput fields are omitted *)
  br_wall : float;
  br_events : int;
  br_alloc_bytes : float;
  br_minor_gcs : int;
  br_major_gcs : int;
  br_subsystems : (string * int * float * float) list;
      (* (label, events, wall_s, alloc_bytes), only under --profile *)
}

let bench_rows : bench_row list ref = ref []

(* Filled by the [campaign] experiment: the jobs-equivalence result and
   the domain-pool accounting that lands in the snapshot's "parallel"
   section. *)
type par_report = {
  pr_runs : int;
  pr_seed : int;
  pr_elapsed_seq : float; (* --jobs 1 campaign wall time *)
  pr_elapsed_par : float; (* --jobs N campaign wall time *)
  pr_identical : bool; (* summaries + per-run digests byte-identical *)
  pr_stats : Par.Pool.stats; (* the --jobs N pool accounting *)
}

let par_report : par_report option ref = ref None

(* Snapshot schema v2. v1 carried only wall_s/sim_events/sim_events_per_s;
   v2 adds allocation + GC accounting, the non_sim marker (throughput
   fields omitted for those experiments), and optional per-subsystem
   breakdowns. trend.exe accepts both. *)
let write_bench_snapshot file ~total_wall =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "{\"schema_version\":2,\"quick\":%b,\"experiments\":["
    !quick;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"id\":\"%s\",\"wall_s\":%.6f,\"non_sim\":%b"
        (Telemetry.Event.json_escape r.br_id)
        r.br_wall (not r.br_engine);
      if r.br_engine then
        Printf.bprintf buf
          ",\"sim_events\":%d,\"sim_events_per_s\":%.1f,\"allocs_per_event\":%.1f"
          r.br_events
          (if r.br_wall > 1e-9 then float_of_int r.br_events /. r.br_wall
           else 0.0)
          (if r.br_events > 0 then
             r.br_alloc_bytes /. float_of_int r.br_events
           else 0.0);
      Printf.bprintf buf
        ",\"alloc_bytes\":%.0f,\"minor_gcs\":%d,\"major_gcs\":%d"
        r.br_alloc_bytes r.br_minor_gcs r.br_major_gcs;
      (match r.br_subsystems with
      | [] -> ()
      | subs ->
          Printf.bprintf buf ",\"subsystems\":[%s]"
            (String.concat ","
               (List.map
                  (fun (l, ev, w, a) ->
                    Printf.sprintf
                      "{\"label\":\"%s\",\"events\":%d,\"wall_s\":%.6f,\"alloc_bytes\":%.0f}"
                      (Telemetry.Event.json_escape l) ev w a)
                  subs)));
      Buffer.add_char buf '}')
    (List.rev !bench_rows);
  Buffer.add_char buf ']';
  (* Optional v2 extension, present when the [campaign] experiment ran:
     jobs-equivalence verdict, true speedup (sequential wall / parallel
     wall of the same workload) and per-domain throughput. *)
  (match !par_report with
  | None -> ()
  | Some p ->
      let st = p.pr_stats in
      Printf.bprintf buf
        ",\"parallel\":{\"runs\":%d,\"seed\":%d,\"jobs\":%d,\"elapsed_seq_s\":%.3f,\"elapsed_par_s\":%.3f,\"speedup\":%.2f,\"pool_occupancy\":%.2f,\"digests_identical\":%b,\"domains\":[%s]}"
        p.pr_runs p.pr_seed st.Par.Pool.jobs p.pr_elapsed_seq p.pr_elapsed_par
        (if p.pr_elapsed_par > 1e-9 then p.pr_elapsed_seq /. p.pr_elapsed_par
         else 0.0)
        (Par.Pool.speedup st) p.pr_identical
        (String.concat ","
           (List.map
              (fun (d : Par.Pool.domain_stat) ->
                Printf.sprintf
                  "{\"domain\":%d,\"tasks\":%d,\"busy_s\":%.3f,\"sim_events\":%d,\"events_per_s\":%.0f}"
                  d.domain_index d.tasks d.busy_s d.sim_events
                  (if d.busy_s > 1e-9 then
                     float_of_int d.sim_events /. d.busy_s
                   else 0.0))
              st.Par.Pool.domains)));
  Printf.bprintf buf ",\"total_wall_s\":%.3f,\"metrics\":%s}" total_wall
    (Telemetry.Registry.to_json ());
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  output_char oc '\n';
  close_out oc

(* --- Parallel chaos campaign ------------------------------------------------ *)

(* The multi-seed experiment behind `--jobs N`: one fixed-seed campaign
   executed twice — sequentially, then across the domain pool — with
   every per-run digest and the campaign summary compared. Equality is
   the whole point (domain count must never affect any digest), so a
   mismatch fails the harness; the wall-time ratio is the true speedup
   recorded in the snapshot. *)
let campaign ~quick =
  let runs = if quick then 60 else 200 in
  let seed = 42 in
  let jobs = max 1 !jobs in
  Tensor.Report.section
    (Printf.sprintf "Parallel chaos campaign (%d runs, seed %d, --jobs %d)"
       runs seed jobs);
  let run_once ~jobs =
    let digests = Array.make runs "" in
    let t0 = Prof.Clock.now_s () in
    let c =
      Chaos.Fuzz.run
        ~progress:(fun i o -> digests.(i) <- o.Chaos.Runner.digest)
        ~jobs ~runs ~seed ()
    in
    (c, digests, Prof.Clock.now_s () -. t0)
  in
  let c1, d1, t1 = run_once ~jobs:1 in
  let cn, dn, tn = run_once ~jobs in
  let summary (c : Chaos.Fuzz.campaign) =
    ( c.runs,
      c.events_total,
      List.map (fun (f : Chaos.Fuzz.failure) -> f.index) c.failures )
  in
  let identical = summary c1 = summary cn && d1 = dn in
  par_report :=
    Some
      {
        pr_runs = runs;
        pr_seed = seed;
        pr_elapsed_seq = t1;
        pr_elapsed_par = tn;
        pr_identical = identical;
        pr_stats = cn.Chaos.Fuzz.pool;
      };
  Tensor.Report.kv "runs" "%d (campaign seed %d)" runs seed;
  Tensor.Report.kv "failures" "%d" (List.length cn.Chaos.Fuzz.failures);
  Tensor.Report.kv "events checked" "%d" cn.Chaos.Fuzz.events_total;
  Tensor.Report.kv "--jobs 1 wall" "%.2f s" t1;
  Tensor.Report.kv (Printf.sprintf "--jobs %d wall" jobs) "%.2f s" tn;
  Tensor.Report.kv "speedup" "%.2fx (occupancy %.2fx)"
    (if tn > 1e-9 then t1 /. tn else 0.0)
    (Par.Pool.speedup cn.Chaos.Fuzz.pool);
  Tensor.Report.kv "digests identical" "%s (all %d runs)"
    (if identical then "yes" else "NO")
    runs;
  Tensor.Report.table
    ~header:[ "domain"; "runs"; "busy s"; "sim events"; "events/s" ]
    (List.map
       (fun (d : Par.Pool.domain_stat) ->
         [
           string_of_int d.domain_index;
           string_of_int d.tasks;
           Printf.sprintf "%.2f" d.busy_s;
           string_of_int d.sim_events;
           Printf.sprintf "%.0f"
             (if d.busy_s > 1e-9 then float_of_int d.sim_events /. d.busy_s
              else 0.0);
         ])
       cn.Chaos.Fuzz.pool.Par.Pool.domains);
  if not identical then
    failwith
      "campaign: --jobs 1 and --jobs N diverged (summary or per-run digests)"

(* --- Bechamel micro-benchmarks of hot paths -------------------------------- *)

let micro ~quick:_ =
  let open Bechamel in
  let open Toolkit in
  Tensor.Report.section "Micro-benchmarks (host wall-clock, Bechamel)";
  let update =
    Bgp.Msg.Update
      {
        withdrawn = [];
        attrs =
          Some
            (Bgp.Attrs.make
               ~as_path:[ Bgp.Attrs.Seq [ 64900; 65010; 7018 ] ]
               ~med:10
               ~next_hop:(Netsim.Addr.of_string "10.0.0.1")
               ());
        nlri =
          List.init 100 (fun i ->
              Netsim.Addr.prefix (Netsim.Addr.of_octets 100 0 i 0) 24);
      }
  in
  let encoded = Bgp.Msg.encode update in
  let rib = Bgp.Rib.create () in
  let source =
    {
      Bgp.Rib.key = "bench";
      peer_asn = 65010;
      peer_addr = Netsim.Addr.of_string "10.0.0.2";
      router_id = Netsim.Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let attrs = Bgp.Attrs.make ~next_hop:(Netsim.Addr.of_string "10.0.0.2") () in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"bgp_update_encode_100nlri"
        (Staged.stage (fun () -> ignore (Bgp.Msg.encode update)));
      Test.make ~name:"bgp_update_decode_100nlri"
        (Staged.stage (fun () -> ignore (Bgp.Msg.decode encoded)));
      Test.make ~name:"rib_update_insert"
        (Staged.stage (fun () ->
             incr counter;
             let p =
               Netsim.Addr.prefix
                 (Netsim.Addr.of_int ((!counter * 2557) land 0xFFFFFF00))
                 24
             in
             ignore (Bgp.Rib.update rib source p (Some attrs))));
      Test.make ~name:"event_heap_schedule_cancel"
        (let eng = Sim.Engine.create () in
         Staged.stage (fun () ->
             let h = Sim.Engine.schedule_after eng 1_000_000 (fun () -> ()) in
             Sim.Engine.cancel h));
      Test.make ~name:"sim_tcp_1000seg_transfer"
        (Staged.stage (fun () ->
             let eng = Sim.Engine.create () in
             let net = Netsim.Network.create eng in
             let a = Netsim.Network.add_node net "a" in
             let b = Netsim.Network.add_node net "b" in
             let _, _, dst = Netsim.Network.connect net a b in
             let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
             Tcp.listen sb ~port:80 (fun c -> Tcp.on_data c (fun _ -> ()));
             let c = Tcp.connect sa ~dst ~dst_port:80 () in
             Tcp.on_established c (fun () ->
                 Tcp.write c (String.make 1_460_000 'x'));
             Sim.Engine.run_for eng (Sim.Time.sec 30)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let stats = Analyze.all ols instance results in
        Sim.Det.fold_sorted ~compare:String.compare
          (fun name ols acc ->
            let ns =
              match Analyze.OLS.estimates ols with
              | Some [ est ] -> Printf.sprintf "%.0f ns" est
              | _ -> "-"
            in
            [ name; ns ] :: acc)
          stats [])
      tests
    |> List.concat
    |> List.sort compare
  in
  Tensor.Report.table ~header:[ "operation"; "time/run" ] rows

(* --- Dispatch ----------------------------------------------------------------- *)

(* The paper experiments, then the bench-only host-wall-clock entries.
   [campaign] is runnable by id but excluded from the default set, so
   seed-vs-PR snapshot comparisons keep a stable experiment list (and
   the default bench run stays single-domain). *)
let default_set =
  Tensor.Experiments.all
  @ [ { Tensor.Experiments.id = "micro"; engine = true; run = micro } ]

let runnable =
  default_set
  @ [ { Tensor.Experiments.id = "campaign"; engine = true; run = campaign } ]

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
    | "--timeseries" :: file :: rest ->
        timeseries := Some file;
        (* The sampler is a bus subscriber: it only observes while
           telemetry is enabled, so enable it like --telemetry-dir. *)
        Telemetry.Control.set_enabled true;
        strip_flags acc rest
    | "--profile" :: rest ->
        profile := true;
        strip_flags acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2);
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
  in
  let args = strip_flags [] args in
  let selected =
    match args with
    | [] -> default_set
    | ids ->
        List.map
          (fun id ->
            match
              List.find_opt
                (fun (e : Tensor.Experiments.t) -> String.equal e.id id)
                runnable
            with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" id
                  (String.concat " "
                     (List.map (fun (e : Tensor.Experiments.t) -> e.id) runnable));
                exit 2)
          ids
  in
  Format.printf
    "TENSOR reproduction — benchmark harness (%s mode)@."
    (if !quick then "quick" else "full");
  let t0 = Prof.Clock.now_s () in
  let sampler = Option.map (fun _ -> Causal.Series.attach ()) !timeseries in
  List.iter
    (fun (e : Tensor.Experiments.t) ->
      if !profile then Prof.Profiler.attach ();
      let t = Prof.Clock.now_s () in
      let e0 = Sim.Engine.global_processed_events () in
      let a0 = Gc.allocated_bytes () in
      let g0 = Gc.quick_stat () in
      e.run ~quick:!quick;
      let wall = Prof.Clock.now_s () -. t in
      let g1 = Gc.quick_stat () in
      let subsystems =
        if !profile then begin
          let rows =
            List.map
              (fun (st : Prof.Profiler.stat) ->
                (st.label, st.events, st.wall_s, st.alloc_bytes))
              (Prof.Profiler.top ~by:Prof.Profiler.By_wall 8)
          in
          Prof.Profiler.detach ();
          rows
        end
        else []
      in
      bench_rows :=
        {
          br_id = e.id;
          br_engine = e.engine;
          br_wall = wall;
          br_events = Sim.Engine.global_processed_events () - e0;
          br_alloc_bytes = Gc.allocated_bytes () -. a0;
          br_minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
          br_major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
          br_subsystems = subsystems;
        }
        :: !bench_rows;
      Format.printf "@.[%s done in %.1fs wall]@." e.id wall)
    selected;
  let total_wall = Prof.Clock.now_s () -. t0 in
  Format.printf "@.All selected experiments done in %.1fs wall.@." total_wall;
  (match (sampler, !timeseries) with
  | Some s, Some file ->
      Causal.Series.detach s;
      Causal.Series.write s file;
      Format.printf "Metric series written to %s (%d samples, %d quiet windows skipped)@."
        file (Causal.Series.sample_count s) (Causal.Series.skipped_windows s)
  | _ -> ());
  (match !emit_bench with
  | Some file ->
      write_bench_snapshot file ~total_wall;
      Format.printf "Bench snapshot written to %s@." file
  | None -> ());
  match !telemetry_dir with
  | Some dir ->
      Telemetry.Control.export_dir dir;
      Format.printf "Telemetry written to %s/@." dir
  | None -> ()
