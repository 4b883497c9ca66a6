(* The repo benchmark. One workload per process, on one domain.

     suite.exe --workload W [--seed S] [--seconds T] [--trace 0|1]
               [--json FILE] [--smoke] [--pin]
     suite.exe all [same options]        every workload, one process each
     suite.exe agree A.jsonl B.jsonl     noise-model comparison of two sets

   A run builds its inputs from the seed, runs one discarded warm-up
   round, then identical rounds until [--seconds] have passed (and at
   least the workload's minimum round count), checks every output, and
   prints each metric with its unit followed by one JSON line:
   {"correct", "attempted", "failed", "metrics"}. It exits 1 when any
   output check failed and 2 on a usage error.

   With --trace 0 (the default) the metrics are the end-to-end ones,
   measured with no observer attached. With --trace 1 they are the
   per-layer ones: untraced rounds alternate with rounds under
   [Prof.Profiler], then the isolated layer drivers run.

   --json appends the run's record (metrics plus the exact simulated
   outputs) to FILE for [agree]. --smoke shrinks every input and reports
   both metric sets, checking them against BENCHMARK.json. --pin writes
   the default seed's simulated outputs to golden/ (for chaos: screens
   and writes the descriptor pool). *)

let default_seed = 1

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  json : string option;
  smoke : bool;
  pin : bool;
}

let usage () =
  prerr_endline
    "usage: suite.exe --workload (learn|advertise|chaos|fleet|all) [--seed S] [--seconds T] \
     [--trace 0|1] [--json FILE] [--smoke] [--pin]\n\
    \       suite.exe agree A.jsonl B.jsonl [--bench BENCHMARK.json]";
  exit 2

(* --- Outputs and their checks ---------------------------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  seen : (string, string) Hashtbl.t;  (** Every exact output so far. *)
  golden : (string * string) list;
}

(* A failed run-level check (golden file, layer driver, metric names)
   counts as one more attempted and failed operation. *)
let fail run msg =
  run.attempted <- run.attempted + 1;
  run.failed <- run.failed + 1;
  Printf.printf "FAILED: %s\n%!" msg

let golden_path w = Filename.concat Workloads.golden_dir (w ^ ".txt")

let load_golden w =
  In_channel.with_open_text (golden_path w) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> None)

(* The pinned outputs are the simulated ones; registry counts are only
   required to repeat. *)
let pinnable (k, _) = not (String.starts_with ~prefix:"count." k)

(* An operation fails on any failed output check, on a pinned golden
   value it does not reproduce, and on an exact output that differs from
   the same output in an earlier round. *)
let check_op run (op : Workloads.op) =
  let mismatches =
    List.filter_map
      (fun (k, v) ->
        let expected =
          match List.assoc_opt k run.golden with
          | Some e -> Some ("golden", e)
          | None -> Option.map (fun e -> ("an earlier round", e)) (Hashtbl.find_opt run.seen k)
        in
        Hashtbl.replace run.seen k v;
        match expected with
        | Some (src, e) when not (String.equal e v) -> Some (Printf.sprintf "%s = %s, %s has %s" k v src e)
        | _ -> None)
      op.Workloads.exact
  in
  run.attempted <- run.attempted + 1;
  match op.Workloads.checks @ mismatches with
  | [] -> ()
  | problems ->
      run.failed <- run.failed + 1;
      List.iter (fun p -> Printf.printf "FAILED: %s\n%!" p) problems

(* --- Rounds --------------------------------------------------------------- *)

type round = {
  meter : Meter.t;
  ops : Workloads.op list;
  heap_words : int;  (** The process's peak major heap when the round ended. *)
}

let run_round run ~trace f =
  Gc.full_major ();
  let meter = Meter.create ~trace in
  let ops = f meter in
  List.iter (check_op run) ops;
  { meter; ops; heap_words = (Gc.quick_stat ()).Gc.top_heap_words }

(* Runs [one] until [seconds] have passed and at least [min_rounds]
   times. *)
let repeat_for ~seconds ~min_rounds one =
  let t0 = Meter.now () in
  let rec go acc n =
    if n >= min_rounds && Meter.now () -. t0 >= seconds then List.rev acc
    else go (one () :: acc) (n + 1)
  in
  go [] 0

(* Untraced and traced rounds alternate, so both see the same stretches
   of a noisy host. *)
let round_pair run f =
  let untraced = run_round run ~trace:false f in
  Prof.Profiler.attach ();
  (untraced, Fun.protect ~finally:Prof.Profiler.detach (fun () -> run_round run ~trace:true f))

let med f rs = Stats.median (List.map (fun r -> f r.meter) rs)
let sum f rs = List.fold_left (fun s r -> s +. f r.meter) 0. rs

(* The noise model: co-tenants on a shared host slow any stretch of a
   run by up to 2x, never speed it up. So each lap of an operation (see
   [Meter.lap]) is timed by its fastest round, and an operation's set-up
   or timed phase by the sum of its laps' best times. *)
let op_bests section rs =
  match rs with
  | [] -> []
  | r0 :: _ ->
      List.mapi
        (fun i o0 ->
          let best = Array.copy (section o0) in
          List.iter
            (fun r ->
              Option.iter
                (fun o -> Array.iteri (fun k t -> if k < Array.length best then best.(k) <- Float.min best.(k) t) (section o))
                (List.nth_opt r.ops i))
            rs;
          Array.fold_left ( +. ) 0. best)
        r0.ops

let total xs = List.fold_left ( +. ) 0. xs
let round_s rs = total (op_bests (fun (o : Workloads.op) -> o.laps) rs)

(* --- End-to-end metrics ---------------------------------------------------- *)

let end_to_end (rs : round list) =
  let best = round_s rs in
  (* Read after the first round, not at exit: the peak creeps up with the
     number of rounds a run fits, which depends on the host's speed. *)
  let heap_bytes = (List.hd rs).heap_words * (Sys.word_size / 8) in
  [
    ("setup_s", total (op_bests (fun (o : Workloads.op) -> o.setup) rs), "s");
    ("round_s", best, "s");
    ("routes_per_s", med (fun m -> float_of_int (Meter.count m "bgp.updates_in")) rs /. best, "routes/s");
    (* Operation tail: chaos's 50 descriptors leave ten samples beyond
       p80; for one-operation workloads it equals round_s. *)
    ("run_p80_s", Stats.percentile 0.8 (op_bests (fun (o : Workloads.op) -> o.laps) rs), "s");
    ("sim_x_realtime", med (fun m -> m.Meter.sim_s) rs /. best, "sim_s/s");
    ("alloc_mb_per_round", med (fun m -> m.Meter.alloc_bytes /. 1e6) rs, "MB");
    ("peak_heap_mb", float_of_int heap_bytes /. 1e6, "MB");
  ]

(* --- Per-layer metrics ----------------------------------------------------- *)

(* A share is the median over traced rounds of a quantity's part of its
   own round, so a slow stretch of the host slows both parts alike. The
   profiler's cost outside the samples it books ([profiler_cost] per
   event) is taken out of the round first: it is not part of the
   untraced round the shares describe. *)
let per_layer ~untraced ~traced ~profiler_cost ~drivers =
  let untraced_time m = m.Meter.timed_s -. (profiler_cost *. float_of_int m.Meter.events) in
  let share f = med (fun m -> f m /. untraced_time m) traced in
  let n = float_of_int (List.length traced) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let layer_rows =
    List.concat_map
      (fun (l, _) ->
        let acc f = sum (fun m -> f (List.assoc l m.Meter.layer_accs)) traced in
        let events = acc (fun a -> float_of_int a.Meter.l_events) in
        [
          (l ^ ".events", events /. n, "count");
          (l ^ ".wall_share", share (fun m -> (List.assoc l m.Meter.layer_accs).Meter.l_wall_s), "share");
          (l ^ ".kb_per_event", ratio (acc (fun a -> a.Meter.l_alloc_bytes)) events /. 1024., "KB");
          (l ^ ".dwell_ms_mean", ratio (acc (fun a -> a.Meter.l_dwell_s)) events *. 1e3, "sim_ms");
        ])
      Meter.layers
  in
  let originated = med (fun m -> float_of_int m.Meter.originate_routes) untraced in
  let per_round name = sum (fun m -> float_of_int (Meter.count m name)) traced /. n in
  let updates_in = per_round "bgp.updates_in" in
  layer_rows
  @ [
      ( "speaker.originate_us_per_route",
        ratio (List.fold_left (fun b r -> Float.min b r.meter.Meter.originate_s) infinity untraced) originated
        *. 1e6,
        "us" );
      ( "speaker.originate_kb_per_route",
        ratio (med (fun m -> m.Meter.originate_bytes) untraced) originated /. 1024.,
        "KB" );
      ("engine.run_share", share (fun m -> m.Meter.dispatch_s), "share");
      ( "unattributed_share",
        1. -. share (fun m -> m.Meter.dispatch_s +. m.Meter.originate_timed_s),
        "share" );
      ("trace_overhead", round_s traced /. round_s untraced, "ratio");
      ("bgp.updates_in", updates_in, "count");
      ("bgp.msgs_in", per_round "bgp.msgs_in", "count");
      ("bgp.msgs_out", per_round "bgp.msgs_out", "count");
      ("tcp.segments_out", per_round "tcp.segments_out", "count");
      ( "tcp.retransmit_ratio",
        ratio (per_round "tcp.retransmits") (per_round "tcp.segments_out"),
        "ratio" );
      ("replicator.rx_replicated", per_round "replicator.rx_replicated", "count");
      ("replicator.acks_held_per_route", ratio (per_round "replicator.acks_held") updates_in, "ratio");
      ("replicator.store_retries", per_round "replicator.store_retries", "count");
      ("bfd.packets_out", per_round "bfd.packets_out", "count");
      ("orch.migrations", per_round "orch.migrations", "count");
      ("telemetry.bus_dropped", per_round "telemetry.bus_dropped", "count");
      ("engine.events_per_round", sum (fun m -> float_of_int m.Meter.events) traced /. n, "count");
    ]
  @ drivers

(* --- Reporting ------------------------------------------------------------- *)

let json_metrics rows =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (Stats.json_num v) u)
         rows)
  ^ "}"

let sorted_seen run = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) run.seen [])

let append_record file ~opts ~run ~rows =
  let exact =
    String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) (sorted_seen run))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Printf.fprintf oc
    "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"correct\": %b, \"attempted\": %d, \
     \"failed\": %d, \"metrics\": %s, \"exact\": {%s}}\n"
    opts.workload opts.seed opts.trace (run.failed = 0) run.attempted run.failed
    (json_metrics rows) exact;
  close_out oc

(* Every metric BENCHMARK.json names must be present, finite and carry a
   unit. *)
let check_names run rows =
  match Monitor.Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error e -> fail run ("BENCHMARK.json: " ^ e)
  | Ok bench ->
      List.iter
        (fun key ->
          Option.bind (Monitor.Json.member key bench) Monitor.Json.to_list
          |> Option.value ~default:[]
          |> List.iter (fun entry ->
                 match Option.bind (Monitor.Json.member "name" entry) Monitor.Json.to_str with
                 | None -> fail run ("BENCHMARK.json: unnamed entry in " ^ key)
                 | Some name -> (
                     match List.find_opt (fun (n, _, _) -> String.equal n name) rows with
                     | Some (_, v, u) when Float.is_finite v && u <> "" -> ()
                     | _ -> fail run ("metric " ^ name ^ " missing, non-finite or unitless"))))
        [ "end_to_end"; "per_layer" ]

(* --- One workload ---------------------------------------------------------- *)

let run_workload opts make =
  let wl = make ~seed:opts.seed ~smoke:opts.smoke in
  let run = { attempted = 0; failed = 0; seen = Hashtbl.create 256; golden = [] } in
  let run =
    if wl.Workloads.golden && opts.seed = default_seed && not (opts.smoke || opts.pin) then (
      try { run with golden = load_golden opts.workload }
      with Sys_error e ->
        fail run ("no pinned outputs: " ^ e);
        run)
    else run
  in
  Printf.printf "workload %s, seed %d, %s\n%!" opts.workload opts.seed
    (if opts.smoke then "smoke" else if opts.trace then "traced" else "untraced");
  ignore (run_round run ~trace:false wl.Workloads.warmup);
  let layers = opts.trace || opts.smoke in
  let untraced, traced =
    if layers then List.split (repeat_for ~seconds:opts.seconds ~min_rounds:1 (fun () -> round_pair run wl.Workloads.round))
    else
      ( repeat_for ~seconds:opts.seconds ~min_rounds:wl.Workloads.min_rounds (fun () ->
            run_round run ~trace:false wl.Workloads.round),
        [] )
  in
  let e2e = end_to_end untraced in
  let layer_rows =
    if not layers then []
    else begin
      let profiler_cost = Layers.profiler_cost_per_event () in
      let pending = List.fold_left (fun p r -> max p r.meter.Meter.pending_peak) 0 traced in
      let drivers =
        Layers.run
          ~fail:(fun msg -> fail run ("layer driver: " ^ msg))
          ~routes:(Lazy.force wl.Workloads.routes) ~pending
      in
      per_layer ~untraced ~traced ~profiler_cost ~drivers
    end
  in
  List.iter
    (fun (k, _) -> if not (Hashtbl.mem run.seen k) then fail run ("pinned output " ^ k ^ " was not produced"))
    run.golden;
  let rows = if opts.smoke then e2e @ layer_rows else if opts.trace then layer_rows else e2e in
  if opts.smoke then check_names run rows;
  Printf.printf "rounds %d untraced; ops attempted %d, failed %d\n" (List.length untraced)
    run.attempted run.failed;
  List.iter (fun (n, v, u) -> Printf.printf "%-36s %18.6f %s\n" n v u) rows;
  if opts.pin then begin
    Out_channel.with_open_text (golden_path opts.workload) (fun oc ->
        List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) (List.filter pinnable (sorted_seen run)));
    Printf.printf "pinned %s\n" (golden_path opts.workload)
  end;
  Option.iter (fun f -> append_record f ~opts ~run ~rows) opts.json;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (run.failed = 0) run.attempted run.failed (json_metrics rows);
  exit (if run.failed = 0 then 0 else 1)

(* Every workload in its own process, so one workload's heap and
   process-global tables never touch another's numbers. *)
let run_all () =
  let codes =
    List.map
      (fun (w, _) ->
        let args = Array.map (fun a -> if a = "all" then w else a) Sys.argv in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1)
      Workloads.all
  in
  exit (List.fold_left max 0 codes)

let parse args =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with Some seed -> go { o with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds > 0. -> go { o with seconds } rest
        | _ -> usage ())
    | "--trace" :: (("0" | "1") as v) :: rest -> go { o with trace = v = "1" } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--json" :: f :: rest -> go { o with json = Some f } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--pin" :: rest -> go { o with pin = true } rest
    | w :: rest when not (String.starts_with ~prefix:"-" w) -> go { o with workload = w } rest
    | _ -> usage ()
  in
  go
    { workload = ""; seed = default_seed; seconds = 10.; trace = false; json = None; smoke = false; pin = false }
    args

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "agree" :: rest -> exit (Agree.main rest)
  | args -> (
      let opts = parse args in
      match (opts.workload, List.assoc_opt opts.workload Workloads.all) with
      | "all", _ -> run_all ()
      | "chaos", Some _ when opts.pin ->
          Workloads.pin_pool ();
          Printf.printf "pinned %s\n" Workloads.pool_path
      | _, Some make -> run_workload opts make
      | _, None -> usage ())
