(* The structured telemetry layer: event bus ordering, span trees and
   orphan handling, histogram buckets and quantiles, milestone capture,
   and the disabled-mode no-op guarantees. *)

open Sim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* Every test starts from a clean, enabled slate and leaves telemetry
   disabled for whoever runs next. *)
let with_telemetry ?(enabled = true) f =
  Telemetry.Control.reset ();
  Telemetry.Control.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Control.set_enabled false;
      Telemetry.Control.reset ())
    f

let ev_generic cat name detail = Telemetry.Event.Generic { cat; name; detail }

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
        List.map (fun e -> Telemetry.Event.name e.Telemetry.Bus.event) entries
      in
      checks "emission order preserved" "a,b,c,d" (String.concat "," names);
      let seqs = List.map (fun e -> e.Telemetry.Bus.seq) entries in
      checkb "sequence strictly increasing" true
        (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
      checkb "all at the same instant" true
        (List.for_all
           (fun e -> e.Telemetry.Bus.at = Time.ms 5)
           entries))

let test_category_filter_and_overflow () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      Telemetry.Bus.set_capacity 4;
      for i = 1 to 10 do
        Telemetry.Bus.emit eng
          (ev_generic Telemetry.Event.Tcp "tick" (string_of_int i))
      done;
      Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Bgp "other" "x");
      let tcp = Telemetry.Bus.events ~category:Telemetry.Event.Tcp () in
      checki "ring keeps the newest 4" 4 (List.length tcp);
      checki "total counts everything" 10 (Telemetry.Bus.total Telemetry.Event.Tcp);
      checki "dropped = overwritten" 6 (Telemetry.Bus.dropped Telemetry.Event.Tcp);
      (match tcp with
      | first :: _ -> (
          match Telemetry.Event.fields first.Telemetry.Bus.event with
          | [ (_, Telemetry.Event.Str d) ] -> checks "oldest survivor" "7" d
          | _ -> Alcotest.fail "unexpected fields")
      | [] -> Alcotest.fail "empty ring");
      checki "bgp unaffected" 1
        (List.length (Telemetry.Bus.events ~category:Telemetry.Event.Bgp ()));
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
                  (Monitor.Json.path [ "f"; "detail" ] generic)
                  Monitor.Json.to_str));
          checks "event name round-trips" "na\"me\\"
            (Option.get
               (Option.bind (Monitor.Json.member "ev" generic)
                  Monitor.Json.to_str));
          checks "id round-trips" "svc\\1"
            (Option.get
               (Option.bind
                  (Monitor.Json.path [ "f"; "id" ] failure)
                  Monitor.Json.to_str))
      | _ -> Alcotest.fail "expected two parsed lines"))

(* --- Spans ---------------------------------------------------------------- *)

let test_span_nesting () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      let root = Telemetry.Span.start eng "failover" in
      Telemetry.Span.set_ambient (Some root);
      ignore
        (Engine.schedule_after eng (Time.ms 30) (fun () ->
             (* No explicit parent: attaches to the ambient root, as BFD
                detection and replica catch-up do. *)
             ignore
               (Telemetry.Span.add eng "bfd_detect" ~start_at:(Time.ms 10)
                  ~stop_at:(Time.ms 30))));
      ignore
        (Engine.schedule_after eng (Time.ms 40) (fun () ->
             let c = Telemetry.Span.start eng "tcp_replay" in
             ignore
               (Engine.schedule_after eng (Time.ms 25) (fun () ->
                    Telemetry.Span.finish eng c;
                    Telemetry.Span.finish eng root;
                    Telemetry.Span.set_ambient None))));
      Engine.run_for eng (Time.ms 100);
      let kids = Telemetry.Span.children root in
      checki "two children under the root" 2 (List.length kids);
      (match Telemetry.Span.find ~name:"bfd_detect" with
      | [ s ] ->
          checkb "retroactive start honoured" true (s.Telemetry.Span.start_at = Time.ms 10);
          checkb "stops inside the root" true
            (s.Telemetry.Span.stop_at = Some (Time.ms 30))
      | l -> Alcotest.failf "bfd_detect spans: %d" (List.length l));
      (match Telemetry.Span.find ~name:"failover" with
      | [ s ] ->
          checkb "root closed at child completion" true
            (s.Telemetry.Span.stop_at = Some (Time.ms 65))
      | _ -> Alcotest.fail "no failover span");
      checki "one root" 1 (List.length (Telemetry.Span.roots ())))

let test_span_stop_unknown () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      Telemetry.Span.finish eng 99;
      let s = Telemetry.Span.start eng "once" in
      Engine.run_for eng (Time.ms 10);
      Telemetry.Span.finish eng s;
      Engine.run_for eng (Time.ms 10);
      (* A second finish must not move the recorded stop. *)
      Telemetry.Span.finish eng s;
      match Telemetry.Span.spans () with
      | [ sp ] ->
          checkb "stopped at the first finish" true
            (sp.Telemetry.Span.stop_at = Some (Time.ms 10))
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

let test_span_orphans () =
  with_telemetry (fun () ->
      let eng = Engine.create () in
      (* Finishing unknown / already-finished / none ids never raises. *)
      Telemetry.Span.finish eng 12345;
      Telemetry.Span.finish eng Telemetry.Span.none;
      let s = Telemetry.Span.start eng "once" in
      Telemetry.Span.finish eng s;
      Telemetry.Span.finish eng s;
      (* A span whose parent was never recorded is still a root. *)
      let orphan = Telemetry.Span.start ~parent:777 eng "orphan" in
      ignore orphan;
      checki "both spans recorded" 2 (List.length (Telemetry.Span.spans ()));
      checki "orphan counts as a root" 2 (List.length (Telemetry.Span.roots ()));
      (* Never-finished spans export with a null stop rather than
         disappearing. *)
      let buf = Buffer.create 256 in
      Telemetry.Span.to_jsonl buf;
      checkb "unfinished span exports null stop" true
        (let s = Buffer.contents buf in
         let rec contains i =
           i + 12 <= String.length s
           && (String.sub s i 12 = "\"stop_ns\":nu" || contains (i + 1))
         in
         contains 0))

(* --- Histograms ----------------------------------------------------------- *)

let test_histogram_buckets () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.hist" in
      (* Power-of-two buckets with exclusive upper bounds: 1.0 lies in
         [1,2) (bound 2.0), 0.999... in [0.5,1) (bound 1.0), exactly 2.0
         rolls over to [2,4) (bound 4.0). Non-positive and NaN land in
         the underflow bucket (bound 0.0). *)
      Telemetry.Registry.observe h 1.0;
      Telemetry.Registry.observe h 0.75;
      Telemetry.Registry.observe h 2.0;
      Telemetry.Registry.observe h 0.0;
      Telemetry.Registry.observe h (-3.0);
      Telemetry.Registry.observe h nan;
      checki "count" 6 (Telemetry.Registry.hist_count h);
      let bucket_of v =
        Telemetry.Registry.buckets h
        |> List.filter (fun (ub, _) -> ub = v)
        |> List.map snd
      in
      checkb "1.0 -> bound 2.0" true (bucket_of 2.0 = [ 1 ]);
      checkb "0.75 -> bound 1.0" true (bucket_of 1.0 = [ 1 ]);
      checkb "2.0 -> bound 4.0" true (bucket_of 4.0 = [ 1 ]);
      checkb "non-positive and nan -> underflow" true (bucket_of 0.0 = [ 3 ]))

(* The edge quantiles must report the observed extremes — real values,
   not the power-of-two bucket bounds they fall into. *)
let test_quantile_extremes () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.quant" in
      List.iter (Telemetry.Registry.observe h) [ 0.37; 5.25; 1.9; 0.62 ];
      checkf "q=0 is the observed minimum" 0.37
        (Telemetry.Registry.quantile h 0.0);
      checkf "q=1 is the observed maximum" 5.25
        (Telemetry.Registry.quantile h 1.0);
      (* Interior estimates are clamped into the observed range, so a
         high quantile can never exceed the true maximum even though its
         bucket's upper bound (8.0) does. *)
      checkb "q=0.99 clamped to the maximum" true
        (Telemetry.Registry.quantile h 0.99 <= 5.25))

(* Edge cases of the log-bucketed quantile estimate. *)

let test_quantile_empty () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.q.empty" in
      checkb "q=0 of empty is nan" true
        (Float.is_nan (Telemetry.Registry.quantile h 0.0));
      checkb "median of empty is nan" true
        (Float.is_nan (Telemetry.Registry.quantile h 0.5));
      checkb "min of empty is nan" true
        (Float.is_nan (Telemetry.Registry.hist_min h));
      checkb "max of empty is nan" true
        (Float.is_nan (Telemetry.Registry.hist_max h)))

let test_quantile_single () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.q.one" in
      Telemetry.Registry.observe h 42.0;
      List.iter
        (fun q -> checkf (Printf.sprintf "q=%g" q) 42.0
            (Telemetry.Registry.quantile h q))
        [ 0.0; 0.5; 1.0 ])

let test_quantile_bounds () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.q.bounds" in
      List.iter (Telemetry.Registry.observe h) [ 3.0; 1.0; 2.0; 4.0 ];
      (* Out-of-range arguments clamp rather than raise or index out of
         bounds. *)
      checkf "q<0 clamps to the minimum" 1.0
        (Telemetry.Registry.quantile h (-0.3));
      checkf "q>1 clamps to the maximum" 4.0
        (Telemetry.Registry.quantile h 1.7))

let test_quantile_nan () =
  with_telemetry (fun () ->
      let h = Telemetry.Registry.histogram "test.q.nan" in
      List.iter (Telemetry.Registry.observe h) [ 1.0; 2.0 ];
      checkb "nan q yields nan" true
        (Float.is_nan (Telemetry.Registry.quantile h nan)))

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_inclusive 1000.0))
    (fun vals ->
      with_telemetry (fun () ->
          let h = Telemetry.Registry.histogram "test.q.prop" in
          List.iter (Telemetry.Registry.observe h) vals;
          let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 ] in
          let rec ok = function
            | a :: (b :: _ as rest) ->
                Telemetry.Registry.quantile h a
                <= Telemetry.Registry.quantile h b +. 1e-9
                && ok rest
            | _ -> true
          in
          ok qs))

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
      checki "no events buffered" 0 (List.length (Telemetry.Bus.events ()));
      let s = Telemetry.Span.start eng "ghost" in
      checkb "span id is none" true (s = Telemetry.Span.none);
      Telemetry.Span.finish eng s;
      checki "no spans recorded" 0 (List.length (Telemetry.Span.spans ())))

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
      let (), got =
        Telemetry.Control.capture ~category:Telemetry.Event.Orch (fun () ->
            Telemetry.Bus.emit eng (orch "a");
            Telemetry.Bus.emit eng (ev_generic Telemetry.Event.Tcp "tcp" "");
            ignore
              (Engine.schedule_after eng (Time.ms 3) (fun () ->
                   Telemetry.Bus.emit eng (orch "c")));
            Telemetry.Bus.emit eng (orch "b");
            Engine.run_for eng (Time.ms 5))
      in
      Telemetry.Bus.emit eng (orch "after");
      checks "orch events of the call, in emission order" "a,b,c"
        (String.concat ","
           (List.map (fun e -> Telemetry.Event.name e.Telemetry.Bus.event) got));
      let seqs = List.map (fun e -> e.Telemetry.Bus.seq) got in
      checkb "seq strictly increasing" true
        (List.for_all2 ( < ) seqs (List.tl seqs @ [ max_int ]));
      checkb "timestamps kept" true
        (List.map (fun e -> e.Telemetry.Bus.at) got
        = [ Time.zero; Time.zero; Time.ms 3 ]);
      (* Capture reads a subscription, not the rings, and never clears
         them: the surrounding run keeps every event. *)
      checki "rings untouched" 5
        (List.length (Telemetry.Bus.events ~category:Telemetry.Event.Orch ())))

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

(* --- End-to-end: failover scenario produces the span tree ----------------- *)

let test_failover_span_tree () =
  with_telemetry (fun () ->
      match Tensor.Exp_table1.run ~kinds:[ Orch.Controller.Host_failure ] () with
      | [ row ] ->
          checkb "scenario converged" true (row.Tensor.Exp_table1.total_s > 0.0);
          let roots =
            Telemetry.Span.roots ()
            |> List.filter (fun s -> s.Telemetry.Span.name = "failover")
          in
          (match roots with
          | [ root ] ->
              checkb "root span closed" true
                (root.Telemetry.Span.stop_at <> None);
              let kid_names =
                Telemetry.Span.children root.Telemetry.Span.sid
                |> List.map (fun s -> s.Telemetry.Span.name)
              in
              checkb "bfd_detect child present" true
                (List.mem "bfd_detect" kid_names);
              checkb "replica_catchup child present" true
                (List.mem "replica_catchup" kid_names)
          | l -> Alcotest.failf "failover roots: %d" (List.length l));
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
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "orphans" `Quick test_span_orphans;
          Alcotest.test_case "stop-unknown" `Quick test_span_stop_unknown;
        ] );
      ( "registry",
        [
          Alcotest.test_case "bucket-boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "quantile-extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "idempotent" `Quick test_registry_idempotent;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "single" `Quick test_quantile_single;
          Alcotest.test_case "bounds" `Quick test_quantile_bounds;
          Alcotest.test_case "nan-q" `Quick test_quantile_nan;
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
        [ Alcotest.test_case "failover-span-tree" `Quick test_failover_span_tree ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_quantile_monotone ] );
    ]
