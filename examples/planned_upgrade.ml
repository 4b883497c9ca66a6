(* Planned upgrade: migrate a perfectly healthy gateway with zero
   downtime — the operational capability of §4.4 ("TENSOR allows
   transparent system updates at any time"), which neither graceful
   restart (frozen policies) nor plain restarts (downtime) provide.

     dune exec examples/planned_upgrade.exe *)

open Sim

let () =
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let { Tensor.Deploy.peer; session = peer_handle; spec } =
    Tensor.Deploy.standard_peering dep
  in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"gw"
      ~local_asn:Tensor.Deploy.local_asn [ spec ]
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
  let (), entries =
    Telemetry.Control.capture (fun () ->
        Tensor.Deploy.planned_migration dep svc;
        ignore
          (Engine.schedule_after eng (Time.ms 200) (fun () ->
               Format.printf "  (peer announces 250 routes mid-upgrade)@.";
               Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
                 (Workload.Prefixes.distinct_from ~base:600_000 250)));
        Engine.run_for eng (Time.sec 30))
  in

  Format.printf "upgrade finished in %a: now on %s/%s@." Time.pp
    (Time.of_sec_f
       (Telemetry.Phase.seconds ~name:"planned_migration"
          (Telemetry.Phase.of_entries entries)))
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc));
  Format.printf "peer session drops: %d@." !drops;
  Format.printf "routes (1000 before + 250 during): %d@."
    (Tensor.Deploy.service_routes svc ~vrf:"v0");
  assert (!drops = 0);
  assert (Tensor.Deploy.service_routes svc ~vrf:"v0" = 1250);
  Format.printf "@.planned upgrade OK — no window negotiated, no policy freeze,@.";
  Format.printf "no downtime: routing updates flowed throughout.@."
