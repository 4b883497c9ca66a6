(* The structured telemetry layer: event bus ordering, span trees and
   orphan handling, histogram export rows, milestone capture,
   and the disabled-mode no-op guarantees. *)

open Sim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

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
      Telemetry.Span.set_ambient (Some 777);
      ignore (Telemetry.Span.start eng "orphan");
      Telemetry.Span.set_ambient None;
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
        [ Alcotest.test_case "failover-span-tree" `Quick test_failover_span_tree ]
      );
    ]
