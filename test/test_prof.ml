(* lib/prof: per-label engine cost attribution must be correct (counts,
   inheritance, queue dwell), strictly observation-only (telemetry
   digests byte-identical with the profiler on or off), and carried
   whole by the cost table every --out writes (each label once, its
   exact allocated bytes). Plus the bus-drop accounting the health
   report now gates on. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let find_stat label =
  List.find_opt
    (fun (st : Prof.Profiler.stat) -> st.label = label)
    (Prof.Profiler.stats ())

let stat label =
  match find_stat label with
  | Some st -> st
  | None -> Alcotest.failf "no profiler row for label %S" label

(* --- attribution ---------------------------------------------------------- *)

let test_label_attribution_and_inheritance () =
  Prof.Profiler.attach ();
  checkb "observer attached" true (Prof.Profiler.enabled ());
  let eng = Sim.Engine.create () in
  (* A labeled event whose handler schedules an unlabeled child: the
     child books under the parent's label, so labeling a subsystem's
     entry point attributes its whole cascade. *)
  ignore
    (Sim.Engine.schedule_after eng ~label:"root" (Sim.Time.ms 10) (fun () ->
         ignore (Sim.Engine.schedule_after eng (Sim.Time.ms 5) (fun () -> ()))));
  ignore
    (Sim.Engine.schedule_after eng ~label:"other" (Sim.Time.ms 1) (fun () ->
         ignore (Sys.opaque_identity (List.init 1000 Fun.id))));
  (* No label and no running event: defaults to "main". *)
  ignore (Sim.Engine.schedule_after eng (Sim.Time.ms 2) (fun () -> ()));
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  checkb "observer detached" false (Prof.Profiler.enabled ());
  checki "root books parent + inherited child" 2 (stat "root").events;
  checki "other books one event" 1 (stat "other").events;
  checki "top-level default label" 1 (stat "main").events;
  checki "total events" 4 (Prof.Profiler.total_events ());
  checkb "allocation attributed to the allocating label" true
    ((stat "other").alloc_bytes > 0.0);
  (* Queue dwell is simulated time from schedule to dispatch: the root
     event waited 10 ms, its child 5 ms. *)
  Alcotest.(check (float 1e-9))
    "root dwell = 10ms + 5ms" 0.015 (stat "root").dwell_s;
  Alcotest.(check (float 1e-9))
    "root max dwell = 10ms" 0.010 (stat "root").dwell_max_s;
  (* by_wall holds every row, costliest first. *)
  let rows = Prof.Profiler.by_wall () in
  checki "every label" 3 (List.length rows);
  checkb "costliest first" true
    (List.for_all2
       (fun (a : Prof.Profiler.stat) (b : Prof.Profiler.stat) ->
         a.wall_s >= b.wall_s)
       (List.filteri (fun i _ -> i < 2) rows)
       (List.tl rows));
  Prof.Profiler.reset ();
  checki "reset clears rows" 0 (List.length (Prof.Profiler.stats ()))

(* Bytes are booked exactly: a label that allocates [n] two-word blocks
   is charged [16 n] bytes (on a 64-bit host), whether or not its event
   runs a minor collection, and a label that allocates nothing is
   charged nothing. *)
let test_alloc_bytes_exact () =
  let block_bytes = 2 * (Sys.word_size / 8) in
  let refs n () =
    for i = 1 to n do
      ignore (Sys.opaque_identity (ref i))
    done
  in
  Prof.Profiler.attach ();
  let eng = Sim.Engine.create () in
  let small = 10 and large = 300_000 (* past the 256k-word minor heap *) in
  ignore (Sim.Engine.schedule_after eng ~label:"small" (Sim.Time.ms 1) (refs small));
  ignore (Sim.Engine.schedule_after eng ~label:"large" (Sim.Time.ms 2) (refs large));
  ignore (Sim.Engine.schedule_after eng ~label:"none" (Sim.Time.ms 3) (fun () -> ()));
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  Alcotest.(check (float 0.))
    "10 blocks" (float_of_int (small * block_bytes)) (stat "small").alloc_bytes;
  Alcotest.(check (float 0.))
    "300k blocks across a minor collection"
    (float_of_int (large * block_bytes))
    (stat "large").alloc_bytes;
  Alcotest.(check (float 0.)) "no allocation" 0. (stat "none").alloc_bytes

(* A block over 256 words skips the minor heap: an event that allocates a
   64 KB [Bytes] is charged for it, and exactly what it allocated (the
   bytes, their header and padding word: 8,194 words on a 64-bit host). *)
let test_alloc_bytes_major () =
  Prof.Profiler.attach ();
  let eng = Sim.Engine.create () in
  ignore
    (Sim.Engine.schedule_after eng ~label:"big" (Sim.Time.ms 1) (fun () ->
         ignore (Sys.opaque_identity (Bytes.create 65_536))));
  ignore (Sim.Engine.schedule_after eng ~label:"none" (Sim.Time.ms 2) (fun () -> ()));
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  checkb "at least 64 KB" true ((stat "big").alloc_bytes >= 65_536.);
  Alcotest.(check (float 0.))
    "the block, exactly"
    (float_of_int ((65_536 / (Sys.word_size / 8)) + 2) *. float_of_int (Sys.word_size / 8))
    (stat "big").alloc_bytes;
  Alcotest.(check (float 0.)) "no allocation" 0. (stat "none").alloc_bytes

(* The whole-run reader behind [experiment --emit-bench] counts every
   word, young or major, across minor collections: a 100,001-word array
   (allocated straight on the major heap) plus 10,000 cons cells, kept
   alive through a promoting minor collection, read as exactly 1,040,008
   bytes on a 64-bit host once the reads' own constant cost, measured
   around nothing, is taken off. *)
let test_allocated_bytes_exact () =
  let w = Sys.word_size / 8 in
  let keep = ref [] in
  let measure f =
    let a = Prof.Profiler.allocated_bytes () in
    f ();
    Prof.Profiler.allocated_bytes () -. a
  in
  let reads = measure ignore in
  let rec cons n acc = if n = 0 then acc else cons (n - 1) (n :: acc) in
  Alcotest.(check (float 0.))
    "array, list and a promotion"
    (float_of_int ((100_001 + (3 * 10_000)) * w))
    (measure (fun () ->
         ignore (Sys.opaque_identity (Array.make 100_000 0));
         keep := cons 10_000 [];
         Gc.minor ())
    -. reads);
  Alcotest.(check (float 0.))
    "300k blocks across a minor collection"
    (float_of_int (300_000 * 2 * w))
    (measure (fun () ->
         for i = 1 to 300_000 do
           ignore (Sys.opaque_identity (ref i))
         done)
    -. reads)

(* --- determinism: profiler on/off must not change telemetry ---------------- *)

let corpus_dir () = if Sys.file_exists "corpus" then "corpus" else "../corpus"

(* The profiler shares the engine's observer slot with the causal
   recorder and a [set_trace_hook] hook, attached after it: each sees
   every dispatch, and the digest is the bare run's. *)
let test_digests_identical_with_profiler () =
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
            Prof.Profiler.attach ();
            Causal.Recorder.reset ();
            Causal.Recorder.attach ();
            Sim.Engine.set_trace_hook
              (Some
                 (fun ~eng:_ ~id:_ ~parent:_ ~label:_ ~sched_at:_ ~exec_at:_ ->
                   incr hooked));
            let ev0 = Sim.Engine.global_processed_events () in
            let on_ = Chaos.Runner.run desc in
            let dispatched = Sim.Engine.global_processed_events () - ev0 in
            Sim.Engine.set_trace_hook None;
            Causal.Recorder.detach ();
            Prof.Profiler.detach ();
            checkb (name ^ " replays green") true
              (Chaos.Runner.ok off && Chaos.Runner.ok on_);
            checks
              (name ^ ": telemetry digest identical with profiler attached")
              off.Chaos.Runner.digest on_.Chaos.Runner.digest;
            checkb (name ^ ": the run dispatched events") true (dispatched > 0);
            checki (name ^ ": profiler saw every dispatch") dispatched
              (Prof.Profiler.total_events ());
            checki (name ^ ": recorder saw every dispatch") dispatched
              (Causal.Recorder.node_count ());
            checki (name ^ ": hook saw every dispatch") dispatched !hooked)
    entries

(* --- cost table ------------------------------------------------------------ *)

let test_cost_table () =
  Prof.Profiler.attach ();
  let eng = Sim.Engine.create () in
  List.iter
    (fun label ->
      ignore
        (Sim.Engine.schedule_after eng ~label (Sim.Time.ms 1) (fun () ->
             ignore (Sys.opaque_identity (List.init 50_000 Fun.id)))))
    [ "a.x"; "b.y"; "a.x" ];
  Sim.Engine.run eng;
  Prof.Profiler.detach ();
  let fields line = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  let last l = List.nth l (List.length l - 1) in
  match
    String.split_on_char '\n' (Prof.Profiler.cost_table ())
    |> List.filter (( <> ) "")
  with
  | header :: columns :: rows ->
      checks "bytes is the last column" "bytes" (last (fields columns));
      let rows =
        List.map (fun r -> (List.hd (fields r), int_of_string (last (fields r)))) rows
      in
      let stats = Prof.Profiler.stats () in
      checki "one row per label" (List.length stats) (List.length rows);
      List.iter
        (fun (st : Prof.Profiler.stat) ->
          match List.filter (fun (l, _) -> l = st.label) rows with
          | [ (_, bytes) ] ->
              checki (st.label ^ ": exact allocated bytes")
                (int_of_float st.alloc_bytes) bytes
          | l -> Alcotest.failf "%s listed %d times" st.label (List.length l))
        stats;
      let total = List.fold_left (fun acc (_, b) -> acc + b) 0 rows in
      checkb "the rows allocated" true (total > 0);
      checkb "bytes sum to the header's allocated total" true
        (String.ends_with header
           ~suffix:(Printf.sprintf "%.1f MB allocated" (float_of_int total /. 1e6)))
  | _ -> Alcotest.fail "cost table has no column header"

(* --- bus drop accounting ---------------------------------------------------- *)

let test_bus_drop_accounting () =
  Telemetry.Control.reset ();
  Telemetry.Bus.set_capacity 4;
  Telemetry.Gate.set true;
  let eng = Sim.Engine.create () in
  let dropped0 =
    Telemetry.Registry.value (Telemetry.Registry.counter "telemetry.bus_dropped")
  in
  for i = 1 to 10 do
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic
         { cat = Telemetry.Event.Tcp; name = "t"; detail = string_of_int i })
  done;
  checki "6 of 10 entries overwritten" 6 (Telemetry.Bus.dropped_total ());
  checki "telemetry.bus_dropped counter tracks overwrites" 6
    (Telemetry.Registry.value
       (Telemetry.Registry.counter "telemetry.bus_dropped")
    - dropped0);
  Alcotest.(check (float 0.0))
    "ring high-water gauge saturates at capacity" 4.0
    (Telemetry.Registry.gauge_value
       (Telemetry.Registry.gauge "telemetry.ring_hwm.tcp"));
  (* Health gates on it: a report cut while drops happened is unhealthy. *)
  let mon = Monitor.Checker.install { peers = []; ack_deadline_s = 0. } in
  let report =
    Monitor.Health.make ~scenario:"drop-test"
      ~engine:{ ev_processed = 0; profiled = [] }
      mon
  in
  checki "report carries the drop count" 6 report.Monitor.Health.bus_dropped;
  checkb "drops fail the health report" false (Monitor.Health.ok report);
  Telemetry.Gate.set false;
  (* Restore the default capacity (clears the rings) for later suites. *)
  Telemetry.Bus.set_capacity 8192;
  Telemetry.Control.reset ();
  checki "clear resets drop accounting" 0 (Telemetry.Bus.dropped_total ())

let () =
  Alcotest.run "prof"
    [
      ( "profiler",
        [
          Alcotest.test_case "label attribution, inheritance, dwell" `Quick
            test_label_attribution_and_inheritance;
          Alcotest.test_case "allocation bytes exact" `Quick
            test_alloc_bytes_exact;
          Alcotest.test_case "major-heap allocation charged" `Quick
            test_alloc_bytes_major;
          Alcotest.test_case "allocated bytes reader exact" `Quick
            test_allocated_bytes_exact;
          Alcotest.test_case "cost table" `Quick test_cost_table;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "corpus digests identical with profiler on" `Slow
            test_digests_identical_with_profiler;
        ] );
      ( "bus",
        [
          Alcotest.test_case "drop counter, hwm gauge, health gate" `Quick
            test_bus_drop_accounting;
        ] );
    ]
