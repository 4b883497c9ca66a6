(* Datacenter: a gateway cluster at (small) scale — many containerized
   BGP services across several hosts, each peering with its own AS, with
   parallel boot, per-container fault isolation, and a host failure that
   migrates a whole batch of services.

     dune exec examples/datacenter.exe

   Demonstrates the operational arguments of §3.2: parallel container
   boot (vs a monolithic ~20-minute configuration load), the reduced
   failure domain (one AS's trouble stays in its container), and the
   resource footprint of Figure 6(d). *)

open Sim
open Netsim

let n_services = 12
let routes_per_as = 2_000

let () =
  let dep = Tensor.Deploy.build ~hosts:4 () in
  let eng = dep.Tensor.Deploy.eng in

  (* One peering AS and one TENSOR service per enterprise client. *)
  let boot_t0 = Engine.now eng in
  let services =
    List.init n_services (fun i ->
        let asn = 65100 + i in
        let peer =
          Tensor.Deploy.add_peer_as dep ~asn (Printf.sprintf "as%d" asn)
        in
        let vip = Addr.of_octets 203 0 113 (10 + i) in
        ignore
          (Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900);
        let svc =
          Tensor.Deploy.deploy_service dep
            ~primary_host:(i mod 3)
            ~backup_host:((i + 1) mod 3)
            ~id:(Printf.sprintf "gw%d" i) ~local_asn:64900
            [
              Tensor.App.vrf_spec ~vrf:"v0" ~vip
                ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:asn ();
            ]
        in
        (peer, svc))
  in
  (* All services boot and establish in parallel. *)
  List.iter
    (fun (_, svc) -> assert (Tensor.Deploy.wait_established dep svc ()))
    services;
  Format.printf
    "%d containerized BGP services established in %a of simulated time@."
    n_services Time.pp
    (Time.diff (Engine.now eng) boot_t0);
  Format.printf
    "(the paper: parallel container boot turns a ~20-minute monolithic@.";
  Format.printf " configuration load into ~20 seconds)@.";

  (* Every AS announces its routes. *)
  List.iteri
    (fun i (peer, _) ->
      Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:(i * 100_000) routes_per_as))
    services;
  Engine.run_for eng (Time.sec 20);
  let total_routes =
    List.fold_left
      (fun acc (_, svc) -> acc + Tensor.Deploy.service_routes svc ~vrf:"v0")
      0 services
  in
  Format.printf "@.cluster learned %d routes across %d isolated VRFs@."
    total_routes n_services;

  (* Resource footprint per host (Figure 6(d) accounting). *)
  Array.iter
    (fun h ->
      Format.printf "  %s: %d containers, %.1f GB, %.2f%% CPU@."
        (Orch.Host.name h)
        (List.length
           (List.filter
              (fun c -> Orch.Container.state c = Orch.Container.Running)
              (Orch.Host.containers h)))
        (Orch.Host.memory_used_mb h /. 1024.)
        (Orch.Host.cpu_used_pct h))
    dep.Tensor.Deploy.hosts;

  (* Fault isolation: crash one service's BGP process; its neighbours on
     the same host are untouched. *)
  let _, victim = List.nth services 0 in
  let _, neighbour = List.nth services 3 in
  Format.printf "@.crashing gw0's BGP process (application failure)...@.";
  Tensor.Deploy.inject_failure dep victim Orch.Controller.App_failure;
  Engine.run_for eng (Time.sec 15);
  Format.printf "gw0 recovered on %s with %d routes; gw3 untouched (%d routes)@."
    (Orch.Container.host_name (Tensor.Deploy.service_container victim))
    (Tensor.Deploy.service_routes victim ~vrf:"v0")
    (Tensor.Deploy.service_routes neighbour ~vrf:"v0");

  (* A whole host dies: every service on it migrates; no peer notices. *)
  let drops = ref 0 in
  List.iter
    (fun (peer, _) ->
      List.iter
        (fun p -> Bgp.Speaker.on_peer_down p (fun _ -> incr drops))
        (Bgp.Speaker.peers peer.Tensor.Deploy.pa_speaker))
    services;
  let _, on_h1 =
    List.find
      (fun (_, svc) ->
        Orch.Container.host_name (Tensor.Deploy.service_container svc)
        = "host1")
      services
  in
  Format.printf "@.failing host1 (machine failure)...@.";
  Tensor.Deploy.inject_failure dep on_h1 Orch.Controller.Host_failure;
  Engine.run_for eng (Time.sec 30);
  let migrated =
    List.filter
      (fun (_, svc) ->
        Orch.Container.host_name (Tensor.Deploy.service_container svc)
        <> "host1")
      services
  in
  Format.printf "services now off host1: %d/%d; peer session drops: %d@."
    (List.length migrated) n_services !drops;
  assert (!drops = 0);
  Format.printf "@.datacenter OK — batch migration with zero downtime@."
