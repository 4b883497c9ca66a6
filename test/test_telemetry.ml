(* The structured telemetry layer: event bus ordering, the recovery
   phases paired from bus milestones, histogram export rows, milestone
   capture, and the disabled-mode no-op guarantees. *)

open Sim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Every test starts from a clean, enabled slate and leaves telemetry
   disabled for whoever runs next. *)
let with_telemetry ?(enabled = true) f =
  Telemetry.Control.reset ();
  Telemetry.Gate.set enabled;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Gate.set false;
      Telemetry.Control.reset ())
    f

let ev_generic cat name detail = Telemetry.Event.Generic { cat; name; detail }

let generic_name (e : Telemetry.Bus.entry) =
  match e.event with Telemetry.Event.Generic { name; _ } -> name | _ -> "?"

(* --- Event bus ------------------------------------------------------------ *)

let test_simultaneous_ordering () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      (* Several events at the same simulated instant, across different
         categories: the global sequence number must preserve emission
         order exactly. *)
      ignore
        (Engine.schedule_after eng (Time.ms 5) (fun () ->
             Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "a" "1");
             Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Bgp "b" "2");
             Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "c" "3");
             Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Orch "d" "4")));
      Engine.run_for eng (Time.ms 10);
      let entries = Telemetry.Bus.events () in
      checki "four events" 4 (List.length entries);
      let names =
        List.map generic_name entries
      in
      checks "emission order preserved" "a,b,c,d" (String.concat "," names);
      let seqs = List.map (fun e -> e.Telemetry.Bus.seq) entries in
      checkb "sequence strictly increasing" true
        (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
      checkb "all at the same instant" true
        (List.for_all
           (fun e -> e.Telemetry.Bus.at = Time.ms 5)
           entries))

(* The buffered entries of one category's ring. *)
let events_in category =
  List.filter
    (fun (e : Telemetry.Bus.entry) ->
      Telemetry.Event.category e.event = category)
    (Telemetry.Bus.events ())

let test_category_filter_and_overflow () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      Telemetry.Bus.set_capacity 4;
      for i = 1 to 10 do
        Telemetry.Bus.emit eng
          (ev_generic Telemetry.Event.Tcp "tick" (string_of_int i))
      done;
      Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Bgp "other" "x");
      let tcp = events_in Telemetry.Event.Tcp in
      checki "ring keeps the newest 4" 4 (List.length tcp);
      checki "dropped = overwritten" 6 (Telemetry.Bus.dropped_total ());
      (match tcp with
      | { Telemetry.Bus.event = Telemetry.Event.Generic { detail; _ }; _ } :: _ ->
          checks "oldest survivor" "7" detail
      | _ -> Alcotest.fail "unexpected ring head");
      checki "bgp unaffected" 1
        (List.length (events_in Telemetry.Event.Bgp));
      Telemetry.Bus.set_capacity 8192)

(* Hostile strings (quotes, backslashes, control bytes, DEL) must
   survive JSONL export as parseable JSON and round-trip byte-for-byte
   through the bundled reader. *)
let test_jsonl_escaping_roundtrip () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      let nasty = "q\"uote\\back\nnew\tline\r\x01ctl\x7f" in
      Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "na\"me\\" nasty);
      Telemetry.Bus.emit eng
        (Telemetry.Event.Failure_detected
           { id = "svc\\1"; kind = "host\"machine" });
      let buf = Buffer.create 256 in
      Telemetry.Bus.to_jsonl buf;
      let lines =
        String.split_on_char '\n' (Buffer.contents buf)
        |> List.filter (fun l -> String.trim l <> "")
      in
      checki "two lines" 2 (List.length lines);
      let parsed =
        List.map
          (fun line ->
            match Monitor.Json.parse line with
            | Ok j -> j
            | Error e -> Alcotest.failf "line does not parse: %s in %s" e line)
          lines
      in
      (match parsed with
      | [ generic; failure ] ->
          checks "detail round-trips" nasty
            (Option.get
               (Option.bind
                  (Option.bind (Monitor.Json.member "f" generic) (Monitor.Json.member "detail"))
                  Monitor.Json.to_str));
          checks "event name round-trips" "na\"me\\"
            (Option.get
               (Option.bind (Monitor.Json.member "ev" generic)
                  Monitor.Json.to_str));
          checks "id round-trips" "svc\\1"
            (Option.get
               (Option.bind
                  (Option.bind (Monitor.Json.member "f" failure) (Monitor.Json.member "id"))
                  Monitor.Json.to_str))
      | _ -> Alcotest.fail "expected two parsed lines"))

(* --- Phases --------------------------------------------------------------- *)

(* Entries built by hand, [seq] = the instant in ms. *)
let entry ms event = { Telemetry.Bus.seq = ms; at = Time.ms ms; event }
let injected service = Telemetry.Event.Failure_injected { service; kind = "app" }
let synced service = Telemetry.Event.Tcp_synced { service; vrf = "v0" }

let named name =
  List.filter (fun (p : Telemetry.Phase.t) -> String.equal p.name name)

let test_phase_reinjection () =
  (* A second injection before the first recovery synced: the first
     failover is left unfinished, the second closes at the sync. *)
  match
    named "failover"
      (Telemetry.Phase.of_entries
         [ entry 10 (injected "s"); entry 20 (injected "s"); entry 50 (synced "s") ])
  with
  | [ first; second ] ->
      checkb "first left unfinished" true
        (first.stop_at = None && first.close_seq = None);
      checkb "second opened by the second injection" true
        (second.start_at = Time.ms 20 && second.open_seq = 20);
      checkb "second closed by the sync" true
        (second.stop_at = Some (Time.ms 50) && second.close_seq = Some 50)
  | l -> Alcotest.failf "failover phases: %d" (List.length l)

let test_phase_per_service () =
  (* Overlapping recoveries: each [Tcp_synced] closes its own service's
     failover, never the other one's. *)
  let phases =
    Telemetry.Phase.of_entries
      [
        entry 10 (injected "a");
        entry 20 (injected "b");
        entry 40 (synced "b");
        entry 70 (synced "a");
      ]
  in
  let stop key =
    List.find_map
      (fun (p : Telemetry.Phase.t) ->
        if String.equal p.key key then Some p.stop_at else None)
      (named "failover" phases)
  in
  checkb "b closed by its own sync" true (stop "b" = Some (Some (Time.ms 40)));
  checkb "a still open at b's sync, closed by its own" true
    (stop "a" = Some (Some (Time.ms 70)))

let test_phase_bfd_detect () =
  (* The start is the last packet heard, [at - silent_s], exact in ns;
     a session that never heard a packet ([silent_s = 0]) has none. *)
  let last_rx = 987_654_321 and at = 1_287_654_329 in
  let down silent_s =
    Telemetry.Event.Bfd_down
      { node = "n"; peer = "p"; vrf = "v0"; silent_s; interval_s = 0.1; mult = 3 }
  in
  let phases =
    Telemetry.Phase.of_entries
      [
        { Telemetry.Bus.seq = 1; at;
          event = down (Time.to_sec_f (Time.diff at last_rx)) };
        { Telemetry.Bus.seq = 2; at; event = down 0.0 };
      ]
  in
  match named "bfd_detect" phases with
  | [ p ] ->
      checki "start exact" last_rx p.start_at;
      checkb "stop at the entry" true (p.stop_at = Some at);
      checkb "one entry opens and closes it" true
        (p.open_seq = 1 && p.close_seq = Some 1);
      checks "keyed by node, peer and vrf" "n|p|v0" p.key
  | l -> Alcotest.failf "bfd_detect phases: %d" (List.length l)

let test_phase_unmatched_catchup () =
  let catchup_start vrf = Telemetry.Event.Catchup_start { service = "s"; vrf } in
  let phases =
    Telemetry.Phase.of_entries
      [
        entry 10 (catchup_start "v0");
        entry 12 (catchup_start "v1");
        entry 15
          (Telemetry.Event.Catchup_done
             { service = "s"; vrf = "v1"; msgs = 0; bytes = 0 });
      ]
  in
  let stops name =
    List.map
      (fun (p : Telemetry.Phase.t) -> (p.key, p.stop_at))
      (named name phases)
  in
  checkb "v0's catch-up stays open, v1's closes" true
    (stops "replica_catchup"
    = [ ("s|v0", None); ("s|v1", Some (Time.ms 15)) ]);
  checkb "v1's TCP replay opens at its catch-up" true
    (stops "tcp_replay" = [ ("s|v1", None) ])

let test_phase_other_kinds_ignored () =
  checki "no phase" 0
    (List.length
       (Telemetry.Phase.of_entries
          [
            entry 1 (ev_generic Telemetry.Event.Orch "tcp_synced" "");
            entry 2 (Telemetry.Event.Store_crashed { node = "store" });
            entry 3
              (Telemetry.Event.Replica_promoted { service = "s"; container = "c" });
            entry 4 (Telemetry.Event.Bfd_up { node = "n"; peer = "p"; vrf = "v0" });
            entry 5 (synced "s");
            entry 6 (Telemetry.Event.Migration_done { id = "s"; host = "h"; container = "c" });
          ]))

(* --- Histograms ----------------------------------------------------------- *)

(* A histogram's exported rows, byte for byte: the JSON object with its
   non-empty buckets as [upper_bound, count] pairs, and the CSV row.
   Power-of-two buckets with exclusive upper bounds: 1.0 lies in [1,2)
   (bound 2), 0.75 in [0.5,1) (bound 1), exactly 2.0 rolls over to
   [2,4) (bound 4); non-positive and NaN observations land in the
   underflow bucket (bound 0). *)
(* A metric's [Registry.to_json] object: from its name to the next
   closing brace. *)
let json_row name =
  let json = Telemetry.Registry.to_json () in
  let prefix = Printf.sprintf {|{"name":"%s",|} name in
  let rec find i =
    if i + String.length prefix > String.length json then
      Alcotest.failf "no metric %S" name
    else if String.sub json i (String.length prefix) = prefix then
      String.sub json i (String.index_from json i '}' - i + 1)
    else find (i + 1)
  in
  find 0

let test_histogram_buckets () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.hist" in
      List.iter (Telemetry.Registry.observe h) [ 1.0; 0.75; 2.0; 0.0; -3.0 ];
      let nan_h = Telemetry.Registry.histogram "test.hist.nan" in
      Telemetry.Registry.observe nan_h nan;
      checks "json row"
        {|{"name":"test.hist","kind":"histogram","count":5,"sum":0.75,"buckets":[[0,2],[1,1],[2,1],[4,1]]}|}
        (json_row "test.hist");
      checks "nan sum exports null, nan lands in the underflow bucket"
        {|{"name":"test.hist.nan","kind":"histogram","count":1,"sum":null,"buckets":[[0,1]]}|}
        (json_row "test.hist.nan"))

(* The bucket choice [Registry.observe] made before it read the exponent
   off the float's bits, kept as the reference: the exclusive upper
   bound of [v]'s bucket. It differs only at +infinity, whose [frexp]
   exponent is 0. *)
let frexp_bucket_bound v =
  if v <= 0.0 || Float.is_nan v then 0.0
  else
    let _, e = Float.frexp v in
    Float.ldexp 1.0 (max (-30) (min 33 e))

(* The one bucket a fresh histogram files [v] under, as exported. *)
let observed_bucket v =
  Telemetry.Registry.reset_values ();
  let h = Telemetry.Registry.histogram "test.hist.one" in
  Telemetry.Registry.observe h v;
  let row = json_row "test.hist.one" in
  let at = String.rindex row '[' + 1 in
  String.sub row at (String.index_from row at ',' - at)

let prop_bucket_matches_frexp =
  let pow2 = Float.ldexp 1.0 in
  let edges =
    [ 0.0; -0.0; nan; -.infinity; -1.0; -.Float.max_float; Float.min_float;
      4.9e-324; Float.max_float; 1.0; Float.pred 1.0; 0.75 ]
    (* both sides of each clamp: 2^-30 is the finest bound, 2^33 the top *)
    @ List.concat_map
        (fun e -> [ pow2 e; Float.pred (pow2 e); Float.succ (pow2 e) ])
        [ -32; -31; -30; -29; 31; 32; 33; 34 ]
  in
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, oneofl edges);
          ( 4,
            map2 (fun m e -> Float.ldexp m e) (float_range 0.5 1.0)
              (int_range (-40) 40) );
          (1, map (fun m -> -.m) (float_bound_inclusive 1e6));
          (1, map (fun m -> m *. Float.min_float) (float_bound_exclusive 1.0));
        ])
  in
  QCheck.Test.make ~name:"bucket = frexp reference" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun v ->
      with_telemetry (fun () ->
          observed_bucket v
          = Telemetry.Event.json_float (frexp_bucket_bound v)))

let test_histogram_infinity () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.hist.inf" in
      Telemetry.Registry.observe h infinity;
      checks "+inf clamps to the top bucket, its sum exports null"
        {|{"name":"test.hist.inf","kind":"histogram","count":1,"sum":null,"buckets":[[8.58993459e+09,1]]}|}
        (json_row "test.hist.inf"))

(* [observe] files a value in place: no tuple from [Float.frexp], no
   boxed sum. The value is one boxed float, so the loop allocates
   nothing either. *)
let test_observe_allocates_nothing () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.hist.alloc" in
      let v = Sys.opaque_identity 0.75 in
      let n = 100_000 in
      let a0 = Prof.Profiler.allocated_bytes () in
      for _ = 1 to n do
        Telemetry.Registry.observe h v
      done;
      let bytes = Prof.Profiler.allocated_bytes () -. a0 in
      checki "all filed" n (Telemetry.Registry.hist_count h);
      if bytes > 1024. then
        Alcotest.failf "%d observations allocated %.0f bytes" n bytes)

let test_registry_idempotent () =
  with_telemetry (fun () ->
      let c1 = Telemetry.Registry.counter "test.same" in
      let c2 = Telemetry.Registry.counter "test.same" in
      Telemetry.Registry.incr c1;
      checki "same underlying counter" 1 (Telemetry.Registry.value c2);
      checkb "kind clash rejected" true
        (try
           ignore (Telemetry.Registry.gauge "test.same");
           false
         with Invalid_argument _ -> true))

(* --- Disabled mode -------------------------------------------------------- *)

let test_disabled_noop () =
  with_telemetry ~enabled:false (fun () ->
      let eng = Engine.create () in
      Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "quiet" "x");
      Telemetry.Bus.emit eng
        (Telemetry.Event.Planned_migration { service = "svc9" });
      checki "no events buffered" 0 (List.length (Telemetry.Bus.events ())))

(* --- Capture ---------------------------------------------------------------- *)

let capture_is_transparent ~enabled () =
  with_telemetry ~enabled (fun () ->
      let subs = Telemetry.Bus.subscriber_count () in
      let inside, _ = Telemetry.Control.capture Telemetry.Gate.on in
      checkb "recording on inside" true inside;
      checkb "gate restored" enabled (Telemetry.Gate.on ());
      checki "subscription released" subs (Telemetry.Bus.subscriber_count ()))

let test_capture_filters_in_order () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      let orch name = ev_generic Telemetry.Event.Orch name "" in
      Telemetry.Bus.emit eng (orch "before");
      let (), all =
        Telemetry.Control.capture (fun () ->
            Telemetry.Bus.emit eng (orch "a");
            Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "tcp" "");
            ignore
              (Engine.schedule_after eng (Time.ms 3) (fun () ->
                   Telemetry.Bus.emit eng (orch "c")));
            Telemetry.Bus.emit eng (orch "b");
            Engine.run_for eng (Time.ms 5))
      in
      Telemetry.Bus.emit eng (orch "after");
      checki "every category captured" 4 (List.length all);
      let got =
        List.filter
          (fun (e : Telemetry.Bus.entry) ->
            Telemetry.Event.category e.event = Telemetry.Event.Orch)
          all
      in
      checks "orch events of the call, in emission order" "a,b,c"
        (String.concat ","
           (List.map generic_name got));
      let seqs = List.map (fun e -> e.Telemetry.Bus.seq) got in
      checkb "seq strictly increasing" true
        (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
      checkb "timestamps kept" true
        (List.map (fun e -> e.Telemetry.Bus.at) got
        = [ Time.zero; Time.zero; Time.ms 3 ]);
      (* Capture reads a subscription, not the rings, and never clears
         them: the surrounding run keeps every event. *)
      checki "rings untouched" 5
        (List.length (events_in Telemetry.Event.Orch)))

let test_capture_restores_on_raise () =
  with_telemetry ~enabled:false (fun () ->
      let subs = Telemetry.Bus.subscriber_count () in
      (match
         Telemetry.Control.capture (fun () -> failwith "body failed")
       with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure _ -> ());
      checkb "gate restored" false (Telemetry.Gate.on ());
      checki "subscription released" subs (Telemetry.Bus.subscriber_count ()))

(* --- Files ---------------------------------------------------------------- *)

(* Every writer of a run's artifacts creates its directory through
   [mkdir_p], so a nested --out path that does not exist yet works. *)
let test_mkdir_p_nested () =
  let root = Filename.temp_dir "telemetry-mkdir" "" in
  let dir = List.fold_left Filename.concat root [ "x"; "y"; "z" ] in
  Telemetry.Control.mkdir_p dir;
  checkb "nested directory created" true (Sys.is_directory dir);
  Telemetry.Control.mkdir_p dir;
  let file = Filename.concat dir "f.txt" in
  Telemetry.Control.write_file file "one";
  Telemetry.Control.write_file file "two";
  Alcotest.(check string)
    "write_file replaces" "two"
    (In_channel.with_open_bin file In_channel.input_all)

(* --- End-to-end: a failover's phases ---------------------------------------- *)

let test_failover_phases () =
  with_telemetry (fun () ->
      match Tensor.Exp_table1.run ~kinds:[ Orch.Controller.Host_failure ] () with
      | [ row ] ->
          checkb "scenario converged" true (row.Tensor.Exp_table1.total_s > 0.0);
          let phases = Telemetry.Phase.of_entries (Telemetry.Bus.events ()) in
          (match named "failover" phases with
          | [ root ] -> checkb "failover closed" true (root.stop_at <> None)
          | l -> Alcotest.failf "failover phases: %d" (List.length l));
          checkb "bfd_detect present" true (named "bfd_detect" phases <> []);
          checkb "replica_catchup present" true
            (named "replica_catchup" phases <> []);
          checkb "catch-up metrics recorded" true
            (Telemetry.Registry.hist_count
               (Telemetry.Registry.histogram "replicator.catchup_s")
            > 0)
      | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))

let () =
  Alcotest.run "telemetry"
    [
      ( "bus",
        [
          Alcotest.test_case "simultaneous-ordering" `Quick
            test_simultaneous_ordering;
          Alcotest.test_case "category-filter-overflow" `Quick
            test_category_filter_and_overflow;
          Alcotest.test_case "jsonl-escaping-roundtrip" `Quick
            test_jsonl_escaping_roundtrip;
        ] );
      ( "phases",
        [
          Alcotest.test_case "second injection leaves the first open" `Quick
            test_phase_reinjection;
          Alcotest.test_case "tcp_synced closes only its service" `Quick
            test_phase_per_service;
          Alcotest.test_case "bfd_detect start exact" `Quick
            test_phase_bfd_detect;
          Alcotest.test_case "unmatched catchup_start stays open" `Quick
            test_phase_unmatched_catchup;
          Alcotest.test_case "other kinds ignored" `Quick
            test_phase_other_kinds_ignored;
        ] );
      ( "registry",
        [
          Alcotest.test_case "bucket-boundaries" `Quick test_histogram_buckets;
          QCheck_alcotest.to_alcotest prop_bucket_matches_frexp;
          Alcotest.test_case "infinity" `Quick test_histogram_infinity;
          Alcotest.test_case "observe allocates nothing" `Quick
            test_observe_allocates_nothing;
          Alcotest.test_case "idempotent" `Quick test_registry_idempotent;
        ] );
      ( "capture",
        [
          Alcotest.test_case "restores gate from off" `Quick
            (capture_is_transparent ~enabled:false);
          Alcotest.test_case "restores gate from on" `Quick
            (capture_is_transparent ~enabled:true);
          Alcotest.test_case "category filter and order" `Quick
            test_capture_filters_in_order;
          Alcotest.test_case "restores on raise" `Quick
            test_capture_restores_on_raise;
        ] );
      ( "modes",
        [ Alcotest.test_case "disabled-noop" `Quick test_disabled_noop ] );
      ( "files",
        [ Alcotest.test_case "mkdir_p nested" `Quick test_mkdir_p_nested ] );
      ( "end-to-end",
        [ Alcotest.test_case "failover-phases" `Quick test_failover_phases ]
      );
    ]
