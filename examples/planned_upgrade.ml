(* Planned upgrade: migrate a perfectly healthy gateway with zero
   downtime — the operational capability of §4.4 ("TENSOR allows
   transparent system updates at any time"), which neither graceful
   restart (frozen policies) nor plain restarts (downtime) provide.

     dune exec examples/planned_upgrade.exe *)

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
    (Workload.Prefixes.distinct 1_000);
  Engine.run_for eng (Time.sec 10);

  let drops = ref 0 in
  Bgp.Speaker.on_peer_down peer_handle (fun _ -> incr drops);
  Format.printf "running on %s/%s; starting the software upgrade...@."
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc));

  (* Updates keep arriving WHILE we upgrade: with graceful restart these
     would be frozen-out; here they are simply delivered to the new
     instance (TCP holds them while the primary is quiesced). *)
  let t0 = Engine.now eng in
  let (), orch =
    Telemetry.Control.capture ~category:Telemetry.Event.Orch (fun () ->
        Tensor.Deploy.planned_migration dep svc;
        ignore
          (Engine.schedule_after eng (Time.ms 200) (fun () ->
               Format.printf "  (peer announces 250 routes mid-upgrade)@.";
               Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
                 (Workload.Prefixes.distinct_from ~base:600_000 250)));
        Engine.run_for eng (Time.sec 30))
  in

  Format.printf "upgrade finished in %a: now on %s/%s@." Time.pp
    (match
       List.find_opt
         (fun (e : Telemetry.Bus.entry) ->
           match e.event with
           | Telemetry.Event.Tcp_synced _ -> true
           | _ -> false)
         orch
     with
    | Some e -> Time.diff e.at t0
    | None -> 0)
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc));
  Format.printf "peer session drops: %d@." !drops;
  Format.printf "routes (1000 before + 250 during): %d@."
    (Tensor.Deploy.service_routes svc ~vrf:"v0");
  assert (!drops = 0);
  assert (Tensor.Deploy.service_routes svc ~vrf:"v0" = 1250);
  Format.printf "@.planned upgrade OK — no window negotiated, no policy freeze,@.";
  Format.printf "no downtime: routing updates flowed throughout.@."
