(* Fleet-scale fault campaigns: correlated kills, regional store
   outages and rolling upgrades stay green under all ten checkers; the
   seeded wave-bound fault trips fleet_slo exactly (mutation testing);
   and campaign replay digests are byte-identical across domains. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let faults_of s =
  match Chaos.Descriptor.faults_of_string s with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "faults_of_string %S: %s" s e

let spec ?(instances = 8) ?(regions = 2) ?(hosts = 6) campaign =
  {
    Fleet.Campaign.default_spec with
    Fleet.Campaign.instances;
    regions;
    hosts;
    faults = faults_of campaign;
    window_ms = 30_000;
    settle_ms = 8_000;
  }

let assert_green (o : Fleet.Campaign.outcome) =
  List.iter
    (fun (e : string) -> Alcotest.failf "campaign error: %s" e)
    o.Fleet.Campaign.errors;
  List.iter
    (fun (v : Monitor.Checker.violation) ->
      Alcotest.failf "campaign violation: %s: %s" v.Monitor.Checker.checker
        v.Monitor.Checker.detail)
    o.Fleet.Campaign.violations

(* --- Correlated faults ------------------------------------------------------- *)

let test_host_kill_green () =
  let o = Fleet.Campaign.run (spec "host_kill@5000") in
  assert_green o;
  checki "ten checkers armed" 10 (List.length o.Fleet.Campaign.checkers);
  (* The busiest host carries two co-located instances: both must fail
     over, and no region may lose all replicas of a service. *)
  checki "correlated failovers" 2
    (List.length o.Fleet.Campaign.slo.Fleet.Slo.failover_s)

let test_region_store_outage_sheds_and_rearms () =
  let o = Fleet.Campaign.run (spec "region_store_outage@5000+8000") in
  assert_green o;
  let rows = o.Fleet.Campaign.slo.Fleet.Slo.region_rows in
  checki "two regions" 2 (List.length rows);
  let hit =
    List.filter (fun r -> r.Fleet.Slo.rr_degraded_total > 0) rows
  in
  (* Exactly one region sheds — and every instance in it, together. *)
  checki "one region degraded" 1 (List.length hit);
  let r = List.hd hit in
  checki "whole region shed together" r.Fleet.Slo.rr_instances
    r.Fleet.Slo.rr_degraded_peak;
  checki "all re-armed after heal" 0 r.Fleet.Slo.rr_degraded_now

let test_rolling_upgrade_bounded () =
  let o = Fleet.Campaign.run (spec "rolling_upgrade@3000:2") in
  assert_green o;
  let s = o.Fleet.Campaign.slo in
  checki "every instance upgraded" 8 s.Fleet.Slo.upgrades_done;
  checki "started = done" s.Fleet.Slo.upgrades_started
    s.Fleet.Slo.upgrades_done;
  checkb "wave bound respected" true (s.Fleet.Slo.upgrade_inflight_peak <= 2)

let test_combined_campaign_green () =
  let o =
    Fleet.Campaign.run
      (spec ~instances:12 ~hosts:8 Fleet.Campaign.default_campaign)
  in
  assert_green o;
  checkb "events flowed" true (o.Fleet.Campaign.events > 0)

(* --- Mutation: the wave-bound checker is not vacuously green ----------------- *)

let test_exceed_wave_bound_trips_fleet_slo () =
  let o =
    Monitor.Faults.with_fault Monitor.Faults.exceed_wave_bound (fun () ->
        Fleet.Campaign.run (spec "rolling_upgrade@3000:2"))
  in
  match o.Fleet.Campaign.violations with
  | [] -> Alcotest.fail "seeded wave-bound overrun went undetected"
  | vs ->
      List.iter
        (fun (v : Monitor.Checker.violation) ->
          checks "only fleet_slo trips" "fleet_slo" v.Monitor.Checker.checker)
        vs

(* --- Replay determinism ------------------------------------------------------ *)

let test_digest_stable_across_runs () =
  let s = spec Fleet.Campaign.default_campaign in
  let o1 = Fleet.Campaign.run s in
  let o2 = Fleet.Campaign.run s in
  assert_green o1;
  checks "same spec, same digest" o1.Fleet.Campaign.digest
    o2.Fleet.Campaign.digest

let test_digest_identical_across_jobs () =
  let s = spec Fleet.Campaign.default_campaign in
  let inline = (Fleet.Campaign.run s).Fleet.Campaign.digest in
  let results, _ =
    Par.Pool.run ~jobs:2 2 (fun _ ->
        (Fleet.Campaign.run s).Fleet.Campaign.digest)
  in
  Array.iter (checks "domain digest matches inline" inline) results

(* [?out] attaches the observers and writes the artifact set plus the
   SLO report: the digest and the outcome must be the bare run's. *)
let test_observed_matches_bare () =
  let s = spec "host_kill@5000" in
  let bare = Fleet.Campaign.run s in
  let dir = Filename.temp_dir "fleet-out" "" in
  let seen = Fleet.Campaign.run ~out:dir s in
  assert_green seen;
  checks "observed digest" bare.Fleet.Campaign.digest seen.Fleet.Campaign.digest;
  checks "observed summary" (Fleet.Campaign.summary bare)
    (Fleet.Campaign.summary seen);
  List.iter
    (fun file ->
      checkb (file ^ " written") true
        (Sys.file_exists (Filename.concat dir file)))
    [ "slo.json"; "events.jsonl"; "health.json"; "trace.perfetto.json" ]

(* --- Spec hygiene ------------------------------------------------------------ *)

let test_rejects_non_fleet_tokens () =
  match Fleet.Campaign.check_faults (faults_of "flap.0@1000+200") with
  | Ok () -> Alcotest.fail "flap has no fleet semantics and must be rejected"
  | Error _ -> ()

let test_instances_normalized_to_pairs () =
  checki "rounded up to replica pairs" 10 (Fleet.Topology.normalize_instances 9);
  checki "minimum one service" 2 (Fleet.Topology.normalize_instances 1)

let () =
  Alcotest.run "fleet"
    [
      ( "campaign",
        [
          Alcotest.test_case "host kill is correlated and green" `Quick
            test_host_kill_green;
          Alcotest.test_case "region outage sheds and re-arms together" `Quick
            test_region_store_outage_sheds_and_rearms;
          Alcotest.test_case "rolling upgrade bounded and complete" `Quick
            test_rolling_upgrade_bounded;
          Alcotest.test_case "stock combined campaign green" `Quick
            test_combined_campaign_green;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "seeded wave overrun trips fleet_slo" `Quick
            test_exceed_wave_bound_trips_fleet_slo;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "digest stable across runs" `Quick
            test_digest_stable_across_runs;
          Alcotest.test_case "digest identical across --jobs" `Quick
            test_digest_identical_across_jobs;
          Alcotest.test_case "observed run matches bare" `Quick
            test_observed_matches_bare;
        ] );
      ( "spec",
        [
          Alcotest.test_case "non-fleet tokens rejected" `Quick
            test_rejects_non_fleet_tokens;
          Alcotest.test_case "instances normalize to replica pairs" `Quick
            test_instances_normalized_to_pairs;
        ] );
    ]
