(* Failover: kill the primary container under live traffic and watch the
   NSR migration keep the remote AS connected.

     dune exec examples/failover.exe

   The peer AS's session and routing table are monitored throughout; the
   example prints the recovery timeline (detection, initiation,
   migration, TCP resynchronization) and proves zero link downtime the
   same way Table 1 does. *)

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
  let (), entries =
    Telemetry.Control.capture (fun () ->
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

  (* Timeline from the recovery phases of the telemetry bus: the
     instant each phase closed. *)
  let phases = Telemetry.Phase.of_entries entries in
  Format.printf "@.recovery timeline (seconds after injection):@.";
  List.iter
    (fun (milestone, name) ->
      let at =
        List.find_map
          (fun (p : Telemetry.Phase.t) ->
            if String.equal p.name name then p.stop_at else None)
          phases
      in
      Format.printf "  %-28s %.3f@." milestone
        (match at with Some at -> Time.to_sec_f (Time.diff at t0) | None -> nan))
    [
      ("failure localized", "detect");
      ("migration initiated", "initiate");
      ("backup resumed", "migrate");
      ("TCP fully re-synced", "failover");
    ];

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
