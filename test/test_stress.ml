(* Whole-system stress: several TENSOR services under a randomized
   failure schedule (application crashes, container deaths, host network
   partitions, planned migrations) over tens of simulated minutes. The
   invariant is the paper's headline: no peering AS ever observes a
   session drop, a stale route, or a lost update. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type svc_rig = {
  svc : Tensor.Deploy.service;
  peer : Tensor.Deploy.peer_as;
  handle : Bgp.Speaker.peer;
  mutable announced : int;
  base : int;
}

let build_world ~services ~seed =
  let dep = Tensor.Deploy.build ~seed ~hosts:4 () in
  let rigs =
    List.init services (fun i ->
        let asn = 65100 + i in
        let peer =
          Tensor.Deploy.add_peer_as dep ~asn (Printf.sprintf "as%d" asn)
        in
        let vip = Addr.of_octets 203 0 113 (100 + i) in
        let handle =
          Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900
        in
        let svc =
          Tensor.Deploy.deploy_service dep
            ~primary_host:(i mod 3)
            ~backup_host:((i + 1) mod 3)
            ~backup_mode:(if i mod 2 = 0 then `Preheat else `Cold)
            ~id:(Printf.sprintf "s%d" i) ~local_asn:64900
            [
              Tensor.App.vrf_spec ~vrf:"v0" ~vip
                ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:asn ();
            ]
        in
        { svc; peer; handle; announced = 0; base = i * 200_000 })
  in
  List.iter
    (fun r -> assert (Tensor.Deploy.wait_established dep r.svc ()))
    rigs;
  (dep, rigs)

let announce_more dep r n =
  Bgp.Speaker.originate r.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct_from ~base:(r.base + r.announced) n);
  r.announced <- r.announced + n;
  ignore dep

let run_stress ~seed () =
  let services = 6 in
  let dep, rigs = build_world ~services ~seed in
  let eng = dep.Tensor.Deploy.eng in
  let drops = ref 0 in
  List.iter
    (fun r -> Bgp.Speaker.on_peer_down r.handle (fun _ -> incr drops))
    rigs;
  (* Initial tables. *)
  List.iter (fun r -> announce_more dep r 500) rigs;
  Engine.run_for eng (Time.sec 15);
  (* Random failure schedule: one event per minute for 12 minutes, with
     fresh announcements interleaved so there is always state in motion. *)
  let rng = Rng.create (seed * 7919) in
  for _round = 1 to 12 do
    let r = List.nth rigs (Rng.int rng services) in
    announce_more dep r (50 + Rng.int rng 400);
    Engine.run_for eng (Time.ms (100 + Rng.int rng 500));
    (match Rng.int rng 4 with
    | 0 -> Tensor.Deploy.inject_failure dep r.svc Orch.Controller.App_failure
    | 1 -> Tensor.Deploy.inject_failure dep r.svc Orch.Controller.Container_failure
    | 2 ->
        (* Transient jitter: must NOT trigger anything at all. *)
        let hname =
          Orch.Container.host_name (Tensor.Deploy.service_container r.svc)
        in
        Array.iter
          (fun h ->
            if Orch.Host.name h = hname then begin
              Orch.Host.network_fail h;
              ignore
                (Engine.schedule_after eng (Time.ms 1200) (fun () ->
                     Orch.Host.network_recover h))
            end)
          dep.Tensor.Deploy.hosts
    | _ -> Tensor.Deploy.planned_migration dep r.svc);
    Engine.run_for eng (Time.sec 60)
  done;
  Engine.run_for eng (Time.minutes 2);
  (* Invariants. *)
  checki "zero session drops across every peer and episode" 0 !drops;
  List.iter
    (fun r ->
      checki
        (Printf.sprintf "service %s holds every announced route"
           (Orch.Container.id (Tensor.Deploy.service_container r.svc)))
        r.announced
        (Tensor.Deploy.service_routes r.svc ~vrf:"v0");
      checkb "session healthy" true
        (Tensor.App.session_established (Tensor.Deploy.service_app r.svc)
           ~vrf:"v0");
      checki "peer has no stale paths" 0
        (Bgp.Rib.stale_count
           (Bgp.Speaker.rib r.peer.Tensor.Deploy.pa_speaker ~vrf:"v0")
           ~key:(Bgp.Speaker.peer_source_key r.handle)))
    rigs

let () =
  Alcotest.run "stress"
    [
      ( "random-failure-schedule",
        [
          Alcotest.test_case "seed 1" `Slow (run_stress ~seed:1);
          Alcotest.test_case "seed 2" `Slow (run_stress ~seed:2);
          Alcotest.test_case "seed 3" `Slow (run_stress ~seed:3);
        ] );
    ]
