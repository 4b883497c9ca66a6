(* Failover: kill the primary container under live traffic and watch the
   NSR migration keep the remote AS connected.

     dune exec examples/failover.exe

   The peer AS's session and routing table are monitored throughout; the
   example prints the recovery timeline (detection, initiation,
   migration, TCP resynchronization) and proves zero link downtime the
   same way Table 1 does. *)

open Sim
open Netsim

let () =
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let peer = Tensor.Deploy.add_peer_as dep ~asn:65010 "peer" in
  let vip = Addr.of_string "203.0.113.10" in
  let peer_handle =
    Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900
  in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"gw" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v0" ~vip
          ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:65010 ();
      ]
  in
  assert (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 500);
  Engine.run_for eng (Time.sec 10);

  let peer_rib = Bgp.Speaker.rib peer.Tensor.Deploy.pa_speaker ~vrf:"v0" in
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down peer_handle (fun r ->
      incr drops;
      Format.printf "!! peer session dropped: %a@." Bgp.Session.pp_down_reason r);

  Format.printf "before failure: primary=%s/%s, peer session %a@."
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc))
    Bgp.Session.pp_state
    (Bgp.Speaker.peer_state peer_handle);

  (* Updates keep flowing while we kill the container. *)
  let t0 = Engine.now eng in
  let (), orch =
    Telemetry.Control.capture ~category:Telemetry.Event.Orch (fun () ->
        Format.printf "@.t=0.000s  injecting container failure...@.";
        Tensor.Deploy.inject_failure dep svc Orch.Controller.Container_failure;
        ignore
          (Engine.schedule_after eng (Time.ms 800) (fun () ->
               Format.printf
                 "t=0.800s  peer announces 200 more routes mid-outage@.";
               Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
                 (Workload.Prefixes.distinct_from ~base:700_000 200)));
        Engine.run_for eng (Time.sec 30))
  in

  (* Timeline from the orchestration events on the telemetry bus. *)
  let rel milestone =
    match
      List.find_opt (fun (e : Telemetry.Bus.entry) -> milestone e.event) orch
    with
    | Some e -> Time.to_sec_f (Time.diff e.at t0)
    | None -> nan
  in
  Format.printf "@.recovery timeline (seconds after injection):@.";
  Format.printf "  %-28s %.3f@." "failure localized"
    (rel (function Telemetry.Event.Failure_detected _ -> true | _ -> false));
  Format.printf "  %-28s %.3f@." "migration initiated"
    (rel (function Telemetry.Event.Migration_initiated _ -> true | _ -> false));
  Format.printf "  %-28s %.3f@." "backup resumed"
    (rel (function Telemetry.Event.Migration_done _ -> true | _ -> false));
  Format.printf "  %-28s %.3f@." "TCP fully re-synced"
    (rel (function Telemetry.Event.Tcp_synced _ -> true | _ -> false));

  Format.printf "@.after recovery: primary=%s/%s@."
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc));
  Format.printf "peer session drops: %d (zero = non-stop routing)@." !drops;
  Format.printf "peer routes: %d (500 pre-failure + 200 mid-outage)@."
    (Bgp.Rib.size peer_rib);
  Format.printf "TENSOR routes after migration: %d@."
    (Tensor.Deploy.service_routes svc ~vrf:"v0");
  assert (!drops = 0);
  assert (Tensor.Deploy.service_routes svc ~vrf:"v0" = 700);
  Format.printf "@.failover OK — zero link downtime@."
