(* Tests for the orchestration substrate: container lifecycle, failure
   detection timings per Table 1, the 3-second confirmation timer, host
   self-fencing (split-brain defence) and quarantine. *)

open Sim
open Netsim
open Orch

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type cluster = {
  eng : Engine.t;
  net : Network.t;
  fabric : Node.t;
  h1 : Host.t;
  h2 : Host.t;
  agent : Agent.t;
  ctrl : Controller.t;
}

let cluster () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let h1 = Host.create net ~fabric "h1" in
  let h2 = Host.create net ~fabric "h2" in
  let agent = Agent.create net ~fabric "agent" in
  let ctrl = Controller.create net ~fabric "controller" in
  Controller.register_host ctrl h1;
  Controller.register_host ctrl h2;
  Controller.register_agent ctrl agent;
  { eng; net; fabric; h1; h2; agent; ctrl }

let test_container_lifecycle () =
  let c = cluster () in
  let cont = Host.create_container c.h1 "c1" in
  checkb "created" true (Container.state cont = Container.Created);
  Container.boot cont;
  checkb "booting" true (Container.state cont = Container.Booting);
  Engine.run_for c.eng (Time.ms 500);
  checkb "not yet running" true (Container.state cont = Container.Booting);
  Engine.run_for c.eng (Time.ms 600);
  checkb "running after 1s" true (Container.state cont = Container.Running);
  Container.fail cont;
  checkb "failed" true (Container.state cont = Container.Failed);
  Container.boot cont;
  Engine.run_for c.eng (Time.sec 2);
  checkb "rebooted" true (Container.state cont = Container.Running)

let test_on_running_hook () =
  let c = cluster () in
  let cont = Host.create_container c.h1 "c1" in
  let hits = ref 0 in
  Container.on_running cont (fun _ -> incr hits);
  Container.boot cont;
  Engine.run_for c.eng (Time.sec 2);
  checki "hook ran" 1 !hits;
  Container.fail cont;
  Container.boot cont;
  Engine.run_for c.eng (Time.sec 2);
  checki "hook ran again on reboot" 2 !hits

let test_resource_accounting () =
  let c = cluster () in
  let conts = List.init 10 (fun i -> Host.create_container c.h1 (Printf.sprintf "c%d" i)) in
  List.iter Container.boot conts;
  Engine.run_for c.eng (Time.sec 2);
  let mem = Host.memory_used_mb c.h1 in
  checkb "10 containers ~2.5GB" true (mem > 2000.0 && mem < 3000.0);
  Container.fail (List.hd conts);
  let mem9 = Host.memory_used_mb c.h1 in
  checkb "failed container not counted" true (mem9 < mem)

let test_service_addr_routing () =
  let c = cluster () in
  let cont = Host.create_container c.h1 "c1" in
  Container.boot cont;
  Engine.run_for c.eng (Time.sec 2);
  let vip = Addr.of_string "203.0.113.99" in
  Container.assign_service_addr cont vip;
  Node.add_route c.fabric (Addr.prefix vip 32) (Host.addr c.h1);
  (* The agent can reach the VIP end-to-end: the controller's IP SLA
     check through it succeeds. *)
  Rpc.serve_ping (Rpc.endpoint (Container.node cont)) ~service:"ipsla";
  let ok = ref None in
  Rpc.call (Rpc.endpoint (Controller.node c.ctrl)) ~dst:(Agent.addr c.agent)
    ~service:"agent_ctl" (Agent.Agent_check vip) (function
    | Ok (Agent.Agent_check_result r) -> ok := Some r
    | Ok _ | Error _ -> ok := Some false);
  Engine.run_for c.eng (Time.sec 1);
  Alcotest.(check (option bool)) "vip reachable" (Some true) !ok

let boot_managed c id =
  let cont = Host.create_container c.h1 id in
  Container.boot cont;
  Engine.run_for c.eng (Time.sec 2);
  Controller.manage c.ctrl ~id cont;
  Engine.run_for c.eng (Time.sec 1);
  cont

let test_container_failure_detection_time () =
  let c = cluster () in
  let cont = boot_managed c "c1" in
  let detected = ref None in
  Controller.set_migrator c.ctrl (fun ~reason ~id:_ ~failed:_ ~done_:_ ->
      if !detected = None then detected := Some (reason, Engine.now c.eng));
  let t0 = Engine.now c.eng in
  Container.fail cont;
  Engine.run_for c.eng (Time.sec 5);
  match !detected with
  | Some (Controller.Container_failure, t) ->
      let d = Time.to_sec_f (Time.diff t t0) in
      checkb (Printf.sprintf "detected+initiated in %.2fs" d) true
        (d > 0.05 && d < 1.0)
  | Some (k, _) ->
      Alcotest.failf "wrong kind %a" Controller.pp_failure_kind k
  | None -> Alcotest.fail "not detected"

let test_app_failure_report_fast_path () =
  let c = cluster () in
  let cont = boot_managed c "c1" in
  let detected = ref None in
  Controller.set_migrator c.ctrl (fun ~reason ~id:_ ~failed:_ ~done_:_ ->
      if !detected = None then detected := Some (reason, Engine.now c.eng));
  (* The in-container monitor reports the crashed BGP process. *)
  let t0 = Engine.now c.eng in
  Rpc.call
    (Rpc.endpoint (Container.node cont))
    ~dst:(Controller.addr c.ctrl) ~service:Controller.report_endpoint_service
    (Controller.Report_app_failure "c1")
    (fun _ -> ());
  Engine.run_for c.eng (Time.sec 2);
  match !detected with
  | Some (Controller.App_failure, t) ->
      checkb "sub-200ms detect+initiate" true (Time.diff t t0 < Time.ms 200)
  | _ -> Alcotest.fail "app failure not detected"

let test_host_failure_detection_time () =
  let c = cluster () in
  ignore (boot_managed c "c1");
  let detected = ref None in
  Controller.set_migrator c.ctrl (fun ~reason ~id:_ ~failed:_ ~done_:_ ->
      if !detected = None then detected := Some (reason, Engine.now c.eng));
  let t0 = Engine.now c.eng in
  Host.fail c.h1;
  Engine.run_for c.eng (Time.sec 10);
  match !detected with
  | Some (Controller.Host_failure, t) ->
      let d = Time.to_sec_f (Time.diff t t0) in
      (* miss (~0.3) + verification + 3s confirm + initiate 0.2 ~ 3.5-4.5 *)
      checkb (Printf.sprintf "host failure confirmed in %.2fs" d) true
        (d > 3.0 && d < 5.0)
  | Some (k, _) -> Alcotest.failf "wrong kind %a" Controller.pp_failure_kind k
  | None -> Alcotest.fail "host failure not detected"

let test_transient_jitter_no_migration () =
  let c = cluster () in
  ignore (boot_managed c "c1");
  let migrations = ref 0 in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ ->
      incr migrations);
  (* 1.5 s network jitter: shorter than the 3 s confirmation timer. *)
  Host.network_fail c.h1;
  ignore
    (Engine.schedule_after c.eng (Time.of_ms_f 1500.) (fun () ->
         Host.network_recover c.h1));
  Engine.run_for c.eng (Time.sec 15);
  checki "no migration for transient jitter" 0 !migrations;
  checkb "host not quarantined" true (Controller.quarantined c.ctrl = []);
  checkb "host not fenced (lease survived)" false (Host.is_fenced c.h1)

let test_permanent_network_failure_migrates () =
  let c = cluster () in
  ignore (boot_managed c "c1");
  let migrated = ref false in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ ->
      migrated := true);
  Host.network_fail c.h1;
  Engine.run_for c.eng (Time.sec 10);
  checkb "migration triggered" true !migrated;
  checkb "host quarantined" true
    (List.mem "h1" (Controller.quarantined c.ctrl));
  (* The partitioned host fenced itself via the lease before the
     controller's migration decision. *)
  checkb "host self-fenced" true (Host.is_fenced c.h1)

let test_lease_fences_before_migration () =
  (* The self-fence instant must precede the controller's host-failed
     declaration: no split-brain window. *)
  let c = cluster () in
  let cont = boot_managed c "c1" in
  let declared_at = ref None in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ ->
      if !declared_at = None then declared_at := Some (Engine.now c.eng));
  Host.network_fail c.h1;
  (* Find the instant the container's networking dies (fence). *)
  let fenced_at = ref None in
  let rec poll () =
    if Host.is_fenced c.h1 && !fenced_at = None then
      fenced_at := Some (Engine.now c.eng)
    else if !fenced_at = None then
      ignore (Engine.schedule_after c.eng (Time.ms 50) poll)
  in
  poll ();
  Engine.run_for c.eng (Time.sec 10);
  ignore cont;
  match (!fenced_at, !declared_at) with
  | Some f, Some d -> checkb "fence before migration" true (f <= d)
  | _ -> Alcotest.fail "missing fence or migration"

let test_quarantine_release () =
  let c = cluster () in
  ignore (boot_managed c "c1");
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ -> ());
  Host.fail c.h1;
  Engine.run_for c.eng (Time.sec 10);
  checkb "quarantined" true (List.mem "h1" (Controller.quarantined c.ctrl));
  Controller.release_quarantine c.ctrl c.h1;
  checkb "released" true (Controller.quarantined c.ctrl = []);
  checkb "fence cleared" false (Host.is_fenced c.h1)

let test_migrator_replacement_monitored () =
  (* After migration the controller monitors the replacement and detects
     its failure too. *)
  let c = cluster () in
  let cont = boot_managed c "c1" in
  let detections = ref 0 in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_ ->
      incr detections;
      let replacement = Host.create_container c.h2 (Printf.sprintf "c1-r%d" !detections) in
      Container.boot replacement;
      ignore
        (Engine.schedule_after c.eng (Time.sec 2) (fun () ->
             done_ replacement)));
  Container.fail cont;
  Engine.run_for c.eng (Time.sec 10);
  checki "first migration" 1 !detections;
  (match Controller.managed_container c.ctrl ~id:"c1" with
  | Some r -> checkb "replacement installed" true (Container.id r = "c1-r1")
  | None -> Alcotest.fail "lost management");
  (* Kill the replacement. *)
  (match Controller.managed_container c.ctrl ~id:"c1" with
  | Some r -> Container.fail r
  | None -> ());
  Engine.run_for c.eng (Time.sec 10);
  checki "second migration" 2 !detections

(* --- Store-gated migration deferral (fleet graceful degradation) --------- *)

let cluster_with_store () =
  (* Bus emission (Migration_deferred et al.) is behind the global
     telemetry gate; each cluster starts a fresh log. *)
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let c = cluster () in
  let snode = Network.add_node c.net "store" in
  let _, fabric_side, _ = Network.connect c.net c.fabric snode in
  Node.add_route snode (Addr.prefix_of_string "0.0.0.0/0") fabric_side;
  let store = Store.Server.create snode in
  Controller.register_store c.ctrl ~addr:(Store.Server.addr store);
  (* Let the probe establish the store as reachable. *)
  Engine.run_for c.eng (Time.sec 1);
  (c, snode)

let count_deferred ~id =
  List.length
    (List.filter
       (fun (e : Telemetry.Bus.entry) ->
         match e.event with
         | Telemetry.Event.Migration_deferred d -> d.id = id
         | _ -> false)
       (Telemetry.Bus.events ()))

let test_store_outage_defers_single_migration () =
  (* Regression: a failure detected while the store is unreachable must
     defer (Migration_deferred) and, once the store heals, fire the
     migrator EXACTLY once — the deferral retry loop and the probe
     verdicts that keep arriving for the same dead container must not
     each schedule their own migration. *)
  let c, snode = cluster_with_store () in
  let cont = boot_managed c "c1" in
  let migrations = ref 0 in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_ ->
      incr migrations;
      let r = Host.create_container c.h2 (Printf.sprintf "c1-r%d" !migrations) in
      Container.boot r;
      ignore
        (Engine.schedule_after c.eng (Time.sec 2) (fun () -> done_ r)));
  (* Store node down: the kv_health probe times out, sok flips. *)
  Node.set_up snode false;
  Engine.run_for c.eng (Time.sec 2);
  Container.fail cont;
  (* Many probe intervals pass with the container dead and the store
     unreachable: plenty of chances for a double-schedule. *)
  Engine.run_for c.eng (Time.sec 8);
  checki "deferred exactly once" 1 (count_deferred ~id:"c1");
  checki "migrator held back while store down" 0 !migrations;
  checki "one failure migration in flight" 1
    (Controller.failure_migrations_active c.ctrl);
  Node.set_up snode true;
  Engine.run_for c.eng (Time.sec 10);
  checki "single migration after heal" 1 !migrations;
  checki "in-flight count drained" 0
    (Controller.failure_migrations_active c.ctrl);
  (match Controller.managed_container c.ctrl ~id:"c1" with
  | Some r -> checkb "replacement installed" true (Container.id r = "c1-r1")
  | None -> Alcotest.fail "lost management")

let test_planned_migration_supersedes_deferred () =
  (* A planned migration taking over the instance while a failure
     migration sits parked on the store outage must orphan the deferred
     chain: when the store heals, the stale epoch must NOT migrate the
     (now healthy, already moved) instance a second time. *)
  let c, snode = cluster_with_store () in
  let cont = boot_managed c "c1" in
  let migrations = ref 0 in
  Controller.set_migrator c.ctrl (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ ->
      incr migrations);
  Node.set_up snode false;
  Engine.run_for c.eng (Time.sec 2);
  Container.fail cont;
  Engine.run_for c.eng (Time.sec 3);
  checki "parked on the outage" 1 (Controller.failure_migrations_active c.ctrl);
  (* Operator-driven move lands while the failure path is parked. *)
  Controller.begin_planned c.ctrl ~id:"c1";
  let replacement = Host.create_container c.h2 "c1-planned" in
  Container.boot replacement;
  Engine.run_for c.eng (Time.sec 2);
  Controller.end_planned c.ctrl ~id:"c1" replacement;
  checki "supersede balanced the in-flight count" 0
    (Controller.failure_migrations_active c.ctrl);
  Node.set_up snode true;
  Engine.run_for c.eng (Time.sec 10);
  checki "stale deferred chain never fired" 0 !migrations;
  match Controller.managed_container c.ctrl ~id:"c1" with
  | Some r -> checkb "planned replacement kept" true (Container.id r = "c1-planned")
  | None -> Alcotest.fail "lost management"

let test_agent_relay_registry () =
  let c = cluster () in
  Agent.start_relay c.agent ~id:"c1" ~src:(Addr.of_string "1.1.1.1")
    ~dst:(Addr.of_string "2.2.2.2") ~vrf:"v0" ~my_disc:1 ~your_disc:2;
  Agent.start_relay c.agent ~id:"c1" ~src:(Addr.of_string "1.1.1.1")
    ~dst:(Addr.of_string "2.2.2.2") ~vrf:"v1" ~my_disc:3 ~your_disc:4;
  checki "two relays" 2 (Agent.relay_count c.agent);
  Agent.start_relay c.agent ~id:"c1" ~src:(Addr.of_string "1.1.1.1")
    ~dst:(Addr.of_string "2.2.2.2") ~vrf:"v0" ~my_disc:5 ~your_disc:6;
  checki "restarting one replaces it" 2 (Agent.relay_count c.agent)

let () =
  Alcotest.run "orch"
    [
      ( "container",
        [
          Alcotest.test_case "lifecycle" `Quick test_container_lifecycle;
          Alcotest.test_case "on_running hook" `Quick test_on_running_hook;
          Alcotest.test_case "resource accounting" `Quick
            test_resource_accounting;
          Alcotest.test_case "service addr routing" `Quick
            test_service_addr_routing;
        ] );
      ( "detection",
        [
          Alcotest.test_case "container failure ~0.3s" `Quick
            test_container_failure_detection_time;
          Alcotest.test_case "app failure fast path" `Quick
            test_app_failure_report_fast_path;
          Alcotest.test_case "host failure ~3.3s" `Quick
            test_host_failure_detection_time;
          Alcotest.test_case "transient jitter tolerated" `Quick
            test_transient_jitter_no_migration;
          Alcotest.test_case "permanent network failure" `Quick
            test_permanent_network_failure_migrates;
        ] );
      ( "split-brain",
        [
          Alcotest.test_case "lease fences before migration" `Quick
            test_lease_fences_before_migration;
          Alcotest.test_case "quarantine and release" `Quick
            test_quarantine_release;
        ] );
      ( "migration",
        [
          Alcotest.test_case "replacement monitored" `Quick
            test_migrator_replacement_monitored;
          Alcotest.test_case "store outage defers, single schedule" `Quick
            test_store_outage_defers_single_migration;
          Alcotest.test_case "planned supersedes deferred failure" `Quick
            test_planned_migration_supersedes_deferred;
          Alcotest.test_case "agent relay registry" `Quick
            test_agent_relay_registry;
        ] );
    ]
