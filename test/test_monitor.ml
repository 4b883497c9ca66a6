(* Runtime-verification layer: clean scenarios stay green, each seeded
   fault trips exactly its checker (mutation testing, which is what
   proves the checkers are not vacuously green), health reports render
   and parse, and the bundled JSON reader round-trips our emitters. *)

open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let checker_result (r : Monitor.Health.report) name =
  match List.assoc_opt name r.Monitor.Health.checkers with
  | Some res -> res
  | None -> Alcotest.failf "checker %s missing from report" name

let assert_all_pass (r : Monitor.Health.report) =
  List.iter
    (fun (name, res) ->
      match res with
      | Monitor.Checker.Pass -> ()
      | Monitor.Checker.Violations vs ->
          Alcotest.failf "clean run: %s violated: %s" name
            (String.concat "; "
               (List.map (fun v -> v.Monitor.Checker.detail) vs)))
    r.Monitor.Health.checkers

(* The fault must trip its own checker and leave every other green. *)
let assert_trips_exactly (r : Monitor.Health.report) name =
  List.iter
    (fun (n, res) ->
      match res with
      | Monitor.Checker.Pass ->
          if String.equal n name then
            Alcotest.failf "fault did not trip %s" name
      | Monitor.Checker.Violations vs ->
          if not (String.equal n name) then
            Alcotest.failf "fault for %s also tripped %s: %s" name n
              (String.concat "; "
                 (List.map (fun v -> v.Monitor.Checker.detail) vs)))
    r.Monitor.Health.checkers

(* One checked scenario through the product dispatch, [tensor-cli check]'s. *)
let run_scenario ?kind name =
  match Tensor.Check.run ?kind name with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* --- Clean scenarios ------------------------------------------------------- *)

let test_clean_failover () =
  let r = run_scenario "failover" in
  assert_all_pass r;
  checkb "report ok" true (Monitor.Health.ok r);
  checkb "saw events" true (r.Monitor.Health.events_seen > 0);
  (* The convergence checker must not pass vacuously: the harness emits
     two snapshot pairs, and the advertised sets are non-empty. *)
  let snaps =
    List.filter_map
      (fun (e : Telemetry.Bus.entry) ->
        match e.event with
        | Telemetry.Event.Rib_snapshot { size; _ } -> Some size
        | _ -> None)
      (Telemetry.Bus.events ())
  in
  checki "four rib snapshots" 4 (List.length snaps);
  checkb "snapshots non-empty" true (List.for_all (fun s -> s > 0) snaps)

let test_clean_planned () =
  let r = run_scenario "planned" in
  assert_all_pass r;
  checkb "report ok" true (Monitor.Health.ok r)

let test_clean_split_brain () =
  let r = run_scenario "split-brain" in
  assert_all_pass r;
  checkb "report ok" true (Monitor.Health.ok r)

(* --- Mutation tests: one fault, one checker ------------------------------- *)

let mutation fault scenario checker () =
  let r = Monitor.Faults.with_fault fault scenario in
  assert_trips_exactly r checker;
  checkb "report not ok" false (Monitor.Health.ok r)

let test_peer_reset =
  mutation Monitor.Faults.peer_reset
    (fun () -> run_scenario ~kind:Orch.Controller.App_failure "failover")
    "no_peer_visible_reset"

let test_repair_gap =
  mutation Monitor.Faults.repair_gap
    (fun () -> run_scenario "failover")
    "tcp_stream_continuity"

let test_early_ack_release =
  mutation Monitor.Faults.early_ack_release
    (fun () -> run_scenario "failover")
    "held_ack_safety"

let test_skip_rib_restore =
  mutation Monitor.Faults.skip_rib_restore
    (fun () -> run_scenario "failover")
    "rib_convergence"

let test_no_fence =
  mutation Monitor.Faults.no_fence
    (fun () -> run_scenario "planned")
    "split_brain_exclusion"

let test_flap_on_migration =
  mutation Monitor.Faults.flap_on_migration
    (fun () -> run_scenario "planned")
    "route_flap_absence"

let test_leak_held_acks =
  mutation Monitor.Faults.leak_held_acks
    (fun () -> run_scenario "failover")
    "queue_drain"

let test_clean_degraded () =
  let r = run_scenario "degraded" in
  assert_all_pass r;
  checkb "report ok" true (Monitor.Health.ok r);
  (* Not vacuous: the store outage really pushed the session through a
     degrade-and-rearm cycle. *)
  let saw ev =
    List.exists
      (fun (e : Telemetry.Bus.entry) -> ev e.event)
      (Telemetry.Bus.events ())
  in
  checkb "entered degraded" true
    (saw (function Telemetry.Event.Degraded_enter _ -> true | _ -> false));
  checkb "exited degraded" true
    (saw (function Telemetry.Event.Degraded_exit _ -> true | _ -> false))

let test_late_degrade =
  mutation Monitor.Faults.late_degrade
    (fun () -> run_scenario "degraded")
    "degraded_mode_exclusion"

(* The BFD bound needs an actual BFD detection, which the NSR scenarios
   mask by design (the relay keeps the peer fed). Drive a raw session
   pair instead: same checker, observed directly. *)
let bfd_detect_report () =
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let mon = Monitor.Checker.install { peers = []; ack_deadline_s = 0. } in
  let eng = Engine.create () in
  let net = Netsim.Network.create eng in
  let a = Netsim.Network.add_node net "a"
  and b = Netsim.Network.add_node net "b" in
  let link, addr_a, addr_b =
    Netsim.Network.connect net ~delay:(Time.us 200) a b
  in
  let _sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  let _sb =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  Netsim.Link.set_up link false;
  Engine.run_for eng (Time.sec 2);
  let r =
    Monitor.Health.make ~scenario:"bfd"
      ~engine:{ ev_processed = 0; profiled = [] }
      mon
  in
  Telemetry.Gate.set false;
  r

let test_bfd_clean () =
  let r = bfd_detect_report () in
  (match checker_result r "bfd_detection_bound" with
  | Monitor.Checker.Pass -> ()
  | Monitor.Checker.Violations vs ->
      Alcotest.failf "clean detection flagged: %s"
        (String.concat "; " (List.map (fun v -> v.Monitor.Checker.detail) vs)));
  (* Not vacuous: a detection actually happened. *)
  checkb "bfd_down observed" true
    (List.exists
       (fun (e : Telemetry.Bus.entry) ->
         match e.event with Telemetry.Event.Bfd_down _ -> true | _ -> false)
       (Telemetry.Bus.events ()))

let test_bfd_slow_detect () =
  let r = Monitor.Faults.with_fault Monitor.Faults.bfd_slow_detect bfd_detect_report in
  assert_trips_exactly r "bfd_detection_bound"

(* --- Health report rendering ----------------------------------------------- *)

let test_health_json_parses () =
  let r = run_scenario "planned" in
  let j = Monitor.Json.parse_exn (Monitor.Health.to_json r) in
  let get k = Option.get (Monitor.Json.member k j) in
  checkb "ok field" true (Monitor.Json.to_bool (get "ok") = Some true);
  checks "scenario" "planned"
    (Option.get (Monitor.Json.to_str (get "scenario")));
  let checkers = Option.get (Monitor.Json.to_list (get "checkers")) in
  checki "ten checkers" 10 (List.length checkers);
  List.iter
    (fun c ->
      checkb "status is pass" true
        (Option.bind (Monitor.Json.member "status" c) Monitor.Json.to_str
        = Some "pass"))
    checkers;
  let slos = Option.get (Monitor.Json.to_list (get "slos")) in
  checkb "has slos" true (slos <> []);
  List.iter
    (fun s ->
      checkb "slo ok" true
        (Option.bind (Monitor.Json.member "ok" s) Monitor.Json.to_bool
        = Some true))
    slos

let test_health_json_violation_shape () =
  (* A violating run's JSON must carry seq/t_ns/detail per violation. *)
  let r =
    Monitor.Faults.with_fault Monitor.Faults.repair_gap (fun () ->
        run_scenario "failover")
  in
  let j = Monitor.Json.parse_exn (Monitor.Health.to_json r) in
  checkb "not ok" true
    (Option.bind (Monitor.Json.member "ok" j) Monitor.Json.to_bool
    = Some false);
  let total =
    Option.bind (Monitor.Json.member "violations_total" j) Monitor.Json.to_int
  in
  checkb "violations counted" true (match total with Some n -> n > 0 | None -> false);
  let viols =
    Option.bind (Monitor.Json.member "checkers" j) Monitor.Json.to_list
    |> Option.get
    |> List.concat_map (fun c ->
           Option.bind (Monitor.Json.member "violations" c) Monitor.Json.to_list
           |> Option.value ~default:[])
  in
  checkb "violation objects populated" true
    (List.for_all
       (fun v ->
         Option.bind (Monitor.Json.member "event_seq" v) Monitor.Json.to_int
         <> None
         && Option.bind (Monitor.Json.member "t_ns" v) Monitor.Json.to_int
            <> None
         && Option.bind (Monitor.Json.member "detail" v) Monitor.Json.to_str
            <> None)
       viols
    && viols <> [])

(* --- The bundled JSON reader ------------------------------------------------ *)

let test_json_parser () =
  let j =
    Monitor.Json.parse_exn
      {|{"a":[1,2.5,-3e2],"s":"q\"\\\nA","t":true,"n":null,"o":{"k":7}}|}
  in
  checkb "array" true
    (Option.bind (Monitor.Json.member "a" j) Monitor.Json.to_list
     |> Option.map List.length
    = Some 3);
  checks "escapes" "q\"\\\nA"
    (Option.get (Option.bind (Monitor.Json.member "s" j) Monitor.Json.to_str));
  checkb "nested member" true
    (Option.bind
       (Option.bind (Monitor.Json.member "o" j) (Monitor.Json.member "k"))
       Monitor.Json.to_int
    = Some 7);
  checkb "null" true (Monitor.Json.member "n" j = Some Monitor.Json.Null);
  checkb "rejects garbage" true
    (match Monitor.Json.parse "{\"a\":}" with Error _ -> true | Ok _ -> false);
  checkb "rejects trailing" true
    (match Monitor.Json.parse "1 2" with Error _ -> true | Ok _ -> false)

(* A bench-snapshot shaped document survives the reader (what
   bench/trend.exe depends on). *)
let test_json_bench_snapshot_shape () =
  let j =
    Monitor.Json.parse_exn
      {|{"schema_version":1,"quick":false,"experiments":[{"id":"fig6a","wall_s":1.5,"sim_events":100,"sim_events_per_s":66.7}],"total_wall_s":1.5,"metrics":{"metrics":[]}}|}
  in
  let exps =
    Option.get
      (Option.bind (Monitor.Json.member "experiments" j) Monitor.Json.to_list)
  in
  checki "one experiment" 1 (List.length exps);
  let e = List.hd exps in
  checkb "wall readable" true
    (Option.bind (Monitor.Json.member "wall_s" e) Monitor.Json.to_float
    = Some 1.5)

let () =
  Alcotest.run "monitor"
    [
      ( "clean",
        [
          Alcotest.test_case "failover" `Quick test_clean_failover;
          Alcotest.test_case "planned" `Quick test_clean_planned;
          Alcotest.test_case "split-brain" `Quick test_clean_split_brain;
          Alcotest.test_case "bfd-detection" `Quick test_bfd_clean;
          Alcotest.test_case "degraded" `Quick test_clean_degraded;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "peer_reset" `Quick test_peer_reset;
          Alcotest.test_case "repair_gap" `Quick test_repair_gap;
          Alcotest.test_case "early_ack_release" `Quick test_early_ack_release;
          Alcotest.test_case "bfd_slow_detect" `Quick test_bfd_slow_detect;
          Alcotest.test_case "skip_rib_restore" `Quick test_skip_rib_restore;
          Alcotest.test_case "no_fence" `Quick test_no_fence;
          Alcotest.test_case "flap_on_migration" `Quick test_flap_on_migration;
          Alcotest.test_case "leak_held_acks" `Quick test_leak_held_acks;
          Alcotest.test_case "late_degrade" `Quick test_late_degrade;
        ] );
      ( "health",
        [
          Alcotest.test_case "json-parses" `Quick test_health_json_parses;
          Alcotest.test_case "violation-shape" `Quick
            test_health_json_violation_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parser;
          Alcotest.test_case "bench-snapshot" `Quick
            test_json_bench_snapshot_shape;
        ] );
    ]
