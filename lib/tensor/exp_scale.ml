open Sim
open Netsim

type result = {
  hosts : int;
  services : int;
  established_s : float;
  routes_total : int;
  host_failure_migrated : int;
  peer_drops : int;
  sim_events : int;
  wall_s : float;
}

let run ~hosts ~services ~routes_per_service =
  let wall0 = Prof.Clock.now_s () in
  let dep = Deploy.build ~hosts () in
  let eng = dep.Deploy.eng in
  let rigs =
    List.init services (fun i ->
        let asn = 65100 + i in
        let peer = Deploy.add_peer_as dep ~asn (Printf.sprintf "as%d" asn) in
        let vip = Addr.of_octets 203 1 (i / 250) (i mod 250) in
        let handle = Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900 in
        let svc =
          Deploy.deploy_service dep
            ~primary_host:(i mod (hosts - 1))
            ~backup_host:((i + 1) mod (hosts - 1))
            ~id:(Printf.sprintf "scale%d" i) ~local_asn:64900
            [
              App.vrf_spec ~vrf:"v0" ~vip ~peer_addr:peer.Deploy.pa_addr
                ~peer_asn:asn ();
            ]
        in
        (peer, handle, svc))
  in
  let t0 = Engine.now eng in
  List.iter (fun (_, _, svc) -> assert (Deploy.wait_established dep svc ())) rigs;
  let established_s = Time.to_sec_f (Time.diff (Engine.now eng) t0) in
  let drops = ref 0 in
  List.iter
    (fun (_, handle, _) -> Bgp.Speaker.on_peer_down handle (fun _ -> incr drops))
    rigs;
  (* Routes in from every AS, routes out from every service. *)
  List.iteri
    (fun i (peer, _, _) ->
      Bgp.Speaker.originate peer.Deploy.pa_speaker ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:(i * 10_000) routes_per_service))
    rigs;
  Engine.run_for eng (Time.sec 30);
  (* Kill one populated host: a batch NSR migration. *)
  let victim_host = "host0" in
  let on_victim =
    List.filter
      (fun (_, _, svc) ->
        Orch.Container.host_name (Deploy.service_container svc) = victim_host)
      rigs
  in
  (match on_victim with
  | (_, _, svc) :: _ -> Deploy.inject_failure dep svc Orch.Controller.Host_failure
  | [] -> ());
  Engine.run_for eng (Time.sec 40);
  let migrated =
    List.length
      (List.filter
         (fun (_, _, svc) ->
           Orch.Container.host_name (Deploy.service_container svc)
           <> victim_host)
         on_victim)
  in
  let routes_total =
    List.fold_left
      (fun acc (_, _, svc) -> acc + Deploy.service_routes svc ~vrf:"v0")
      0 rigs
  in
  {
    hosts;
    services;
    established_s;
    routes_total;
    host_failure_migrated = migrated;
    peer_drops = !drops;
    sim_events = Engine.processed_events eng;
    wall_s = Prof.Clock.now_s () -. wall0;
  }

let print r =
  Report.section
    "Deployment scale (§4.4): fleet-wide zero downtime through a host loss";
  Report.kv "hosts / services / sessions" "%d / %d / %d" r.hosts r.services
    r.services;
  Report.kv "parallel bring-up (simulated)" "%s"
    (Report.fseconds r.established_s);
  Report.kv "routes across the fleet" "%d" r.routes_total;
  Report.kv "services batch-migrated by the host failure" "%d"
    r.host_failure_migrated;
  Report.kv "peering-AS session drops" "%d (zero = fleet-wide NSR)"
    r.peer_drops;
  Report.kv "simulator" "%d events in %.1f s wall" r.sim_events r.wall_s;
  Report.note
    "the paper's fleet: 400 servers and 31,000 connections with two years of";
  Report.note
    "zero link downtime; this run exercises the same architecture end to end";
  Report.note "(controller, agent relays, store, per-service containers)."
