open Sim
open Netsim

(* A host-level failure cold-starts the backup: image distribution and
   scheduling on a non-preheated host. App and container failures boot it
   in the host's warm container boot (1 s). *)
let cold_boot = Time.of_ms_f 4400.

type service = {
  sid : string;
  scfg : App.config;
  backup_mode : [ `Cold | `Preheat ];
  mutable backup_host : int;
  mutable primary : Orch.Container.t;
  mutable app : App.t;
  mutable standby : Orch.Container.t option;
  mutable generation : int;
}

type t = {
  eng : Engine.t;
  net : Network.t;
  fabric : Node.t;
  hosts : Orch.Host.t array;
  agent : Orch.Agent.t;
  ctrl : Orch.Controller.t;
  store_server : Store.Server.t;
  store_addr : Addr.t;
  store_replica_server : Store.Server.t option;
  services : (string, service) Hashtbl.t;
  mutable picker :
    (service_id:string -> avoid:string list -> Orch.Host.t option) option;
}

type peer_as = {
  pa_name : string;
  pa_node : Node.t;
  pa_addr : Addr.t;
  pa_speaker : Bgp.Speaker.t;
  pa_asn : int;
}

let set_service_picker t pick = t.picker <- Some pick

(* --- Migrator ---------------------------------------------------------------- *)

let pick_backup_host t svc =
  let quarantined = Orch.Controller.quarantined t.ctrl in
  let failed_host = Orch.Container.host_name svc.primary in
  let n = Array.length t.hosts in
  let rec find i =
    if i >= n then svc.backup_host (* fall back, nothing better *)
    else
      let idx = (svc.backup_host + i) mod n in
      let h = t.hosts.(idx) in
      if
        Orch.Host.is_up h
        && (not (Orch.Host.is_fenced h))
        && (not (List.mem (Orch.Host.name h) quarantined))
        && not (String.equal (Orch.Host.name h) failed_host)
      then idx
      else find (i + 1)
  in
  find 0

let reroute_vips t svc host =
  List.iter
    (fun (spec : App.vrf_spec) ->
      Node.add_route t.fabric (Addr.prefix spec.App.vip 32)
        (Orch.Host.addr host))
    svc.scfg.App.vrfs

(* Once an instance's BFD session to the peer is up, the agent takes
   over its relay with the session's discriminators. *)
let relay_bfd t svc app =
  App.on_bfd_up app (fun ~vrf session ->
      match
        List.find_opt
          (fun (s : App.vrf_spec) -> String.equal s.App.vrf vrf)
          svc.scfg.App.vrfs
      with
      | Some spec ->
          Orch.Agent.start_relay t.agent ~id:svc.sid ~src:spec.App.vip
            ~dst:spec.App.peer_addr ~vrf ~my_disc:(Bfd.my_disc session)
            ~your_disc:(Bfd.your_disc session)
      | None -> ())

(* A preheated standby is usable when it is alive on a healthy host that
   is not the one that just failed. *)
let usable_standby t svc =
  match svc.standby with
  | Some cont
    when Orch.Container.state cont = Orch.Container.Running
         && Orch.Container.host_name cont
            <> Orch.Container.host_name svc.primary -> (
      let hname = Orch.Container.host_name cont in
      match
        Array.to_list t.hosts
        |> List.find_opt (fun h -> String.equal (Orch.Host.name h) hname)
      with
      | Some h when Orch.Host.is_up h && not (Orch.Host.is_fenced h) ->
          Some cont
      | _ -> None)
  | _ -> None

(* Where the next instance goes: the deployment's picker hook when one
   is installed (fleet region-aware placement), the round-robin backup
   index otherwise. [None] means no healthy host qualifies right now. *)
let choose_host t svc ~avoid =
  match t.picker with
  | Some pick -> pick ~service_id:svc.sid ~avoid
  | None -> Some t.hosts.(pick_backup_host t svc)

let provision_standby t svc =
  match
    choose_host t svc ~avoid:[ Orch.Container.host_name svc.primary ]
  with
  | None -> () (* no healthy host: skip preheating, migrate defers later *)
  | Some host ->
      let cont =
        Orch.Host.create_container host
          (Printf.sprintf "%s-standby%d" svc.sid svc.generation)
      in
      Orch.Container.boot cont;
      svc.standby <- Some cont

let migrate t svc ~(reason : Orch.Controller.failure_kind) ~done_ =
  svc.generation <- svc.generation + 1;
  let boot_span =
    match reason with
    | Orch.Controller.Host_failure | Orch.Controller.Host_network_failure ->
        Some cold_boot
    | Orch.Controller.App_failure | Orch.Controller.Container_failure -> None
  in
  (* Fence the old instance (TKE kill): for app failures the container is
     alive but its process is dead; make sure it cannot speak again.
     Seeded fault: skip the fence and promote over a live primary. *)
  if not !Monitor.Faults.no_fence then begin
    Orch.Container.stop svc.primary;
    (* The kill takes the old process too: halt its app so no zombie
       timer keeps attempting store writes through the dead node (a
       blocked control lane would otherwise age past the degrade
       deadline and declare degraded pass-through under the conn id the
       promoted instance is using). *)
    App.halt svc.app
  end;
  let gen = svc.generation in
  let continue_with cont =
  let app = App.install cont ~mode:App.Recover svc.scfg in
  relay_bfd t svc app;
  App.on_tcp_synced app (fun ~vrf ->
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Tcp_synced { service = svc.sid; vrf }));
  App.on_recovered app (fun () ->
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Replica_promoted
             { service = svc.sid; container = Orch.Container.id cont });
      svc.primary <- cont;
      svc.app <- app;
      (* Keep a standby warm for the next failure. *)
      if svc.backup_mode = `Preheat then provision_standby t svc;
      done_ cont);
  (* Inbound traffic must land on the new instance once it answers. *)
  (match
     Array.to_list t.hosts
     |> List.find_opt (fun h ->
            String.equal (Orch.Host.name h) (Orch.Container.host_name cont))
   with
  | Some host -> reroute_vips t svc host
  | None -> ());
  Orch.Container.boot cont
  in
  match usable_standby t svc with
  | Some cont ->
      svc.standby <- None;
      continue_with cont
  | None ->
      (* Graceful degradation: when no healthy host can take the
         instance, defer and retry instead of thrashing — no container
         is created until a host qualifies. A newer migration
         (generation bump) abandons a still-pending retry loop. *)
      let failed_host = Orch.Container.host_name svc.primary in
      let rec acquire () =
        if svc.generation = gen then
          match choose_host t svc ~avoid:[ failed_host ] with
          | Some host ->
              continue_with
                (Orch.Host.create_container host ?boot_span
                   (Printf.sprintf "%s-g%d" svc.sid svc.generation))
          | None ->
              if Telemetry.Gate.on () then
                Telemetry.Bus.emit t.eng
                  (Telemetry.Event.Migration_deferred
                     { id = svc.sid; reason = "no-healthy-host" });
              ignore
                (Engine.schedule_after t.eng ~label:"deploy.defer_placement"
                   (Time.sec 1) acquire)
      in
      acquire ()

(* --- Build --------------------------------------------------------------------- *)

let build ?(seed = 42) ?(hosts = 3) ?(store_delay = Time.us 100)
    ?(store_replica = false) () =
  let eng = Engine.create ~seed () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let host_arr =
    Array.init hosts (fun i ->
        Orch.Host.create net ~fabric (Printf.sprintf "host%d" i))
  in
  let agent = Orch.Agent.create net ~fabric "agent" in
  let ctrl = Orch.Controller.create net ~fabric "controller" in
  Array.iter (fun h -> Orch.Controller.register_host ctrl h) host_arr;
  Orch.Controller.register_agent ctrl agent;
  (* The store lives on its own server joined to the fabric (Redis on a
     separate machine, §4.1). *)
  let store_node, _ =
    Network.add_leaf net ~delay:store_delay ~uplink:fabric "store"
  in
  let store_server = Store.Server.create store_node in
  (* The store's own fault tolerance: a synchronous replica on a second
     server (the paper treats store+primary double failures as out of
     scope, §4.1). *)
  let store_replica_server =
    if store_replica then begin
      let replica_node, _ =
        Network.add_leaf net ~delay:store_delay ~uplink:fabric "store-replica"
      in
      let replica = Store.Server.create replica_node in
      Store.Server.attach_replica store_server replica;
      Some replica
    end
    else None
  in
  let t =
    {
      eng;
      net;
      fabric;
      hosts = host_arr;
      agent;
      ctrl;
      store_server;
      store_addr = Store.Server.addr store_server;
      store_replica_server;
      services = Hashtbl.create 16;
      picker = None;
    }
  in
  Orch.Controller.set_migrator ctrl (fun ~reason ~id ~failed:_ ~done_ ->
      match Hashtbl.find_opt t.services id with
      | Some svc -> migrate t svc ~reason ~done_
      | None -> ());
  t

(* --- Peers ----------------------------------------------------------------------- *)

let speaker_leaf net ~fabric ?(link_delay = Time.us 200) ~asn name =
  let node, addr = Network.add_leaf net ~delay:link_delay ~uplink:fabric name in
  let stack = Tcp.create_stack node in
  let speaker =
    Bgp.Speaker.create ~profile:Baseline.frr ~stack ~local_asn:asn
      ~router_id:addr ()
  in
  { pa_name = name; pa_node = node; pa_addr = addr; pa_speaker = speaker;
    pa_asn = asn }

let add_peer_as t ?link_delay ~asn name =
  speaker_leaf t.net ~fabric:t.fabric ?link_delay ~asn name

let peer_expects pa ~vrf ~vip ~local_asn =
  let peer =
    Bgp.Speaker.add_peer pa.pa_speaker
      (Bgp.Speaker.default_peer_config ~remote_asn:local_asn ~passive:true ~vrf
         ~remote_addr:vip ())
  in
  (* The peer runs its own BFD towards the service address. *)
  ignore
    (Bfd.create_session (Bfd.endpoint pa.pa_node) ~local:pa.pa_addr ~vrf
       ~remote:vip ());
  peer

type peering = {
  peer : peer_as;
  session : Bgp.Speaker.peer;
  spec : App.vrf_spec;
}

let local_asn = 64900

let peering t ?link_delay ~asn ~vrf ~vip name =
  let peer = add_peer_as t ?link_delay ~asn name in
  let session = peer_expects peer ~vrf ~vip ~local_asn in
  let spec = App.vrf_spec ~vrf ~vip ~peer_addr:peer.pa_addr ~peer_asn:asn () in
  { peer; session; spec }

let standard_peering t =
  peering t ~asn:65010 ~vrf:"v0" ~vip:(Addr.of_string "203.0.113.10") "peerAS"

(* --- Services ----------------------------------------------------------------------- *)

let deploy_service t ?(primary_host = 0) ?(backup_host = 1)
    ?(backup_mode = `Cold) ?(ack_hold = true) ?(store_resilient = false)
    ?(degrade_frac = 0.) ?store_addr ~id ~local_asn vrfs =
  let store_addr = Option.value store_addr ~default:t.store_addr in
  let store_mode : Store.Client.mode =
    if not store_resilient then Plain
    else
      match t.store_replica_server with
      | None -> Retrying
      | Some replica -> Failover (Store.Server.addr replica)
  in
  let cfg =
    App.config ~service_id:id ~store_addr ~store_mode
      ~controller_addr:(Orch.Controller.addr t.ctrl) ~local_asn ~degrade_frac
      ~ack_hold vrfs
  in
  let host = t.hosts.(primary_host) in
  let cont = Orch.Host.create_container host id in
  let app = App.install cont cfg in
  let svc =
    {
      sid = id;
      scfg = cfg;
      backup_mode;
      backup_host;
      primary = cont;
      app;
      standby = None;
      generation = 0;
    }
  in
  Hashtbl.replace t.services id svc;
  if backup_mode = `Preheat then provision_standby t svc;
  relay_bfd t svc app;
  reroute_vips t svc host;
  Orch.Container.boot cont;
  (* Register with the controller once the container answers health
     checks. *)
  ignore
    (Engine.schedule_after t.eng ~label:"orch.boot"
       (Orch.Container.boot_span cont) (fun () ->
         Orch.Controller.manage t.ctrl ~id cont));
  svc

let service_app svc = svc.app
let service_container svc = svc.primary

let wait_established t svc () =
  let deadline = Time.add (Engine.now t.eng) (Time.sec 30) in
  let ok () =
    List.for_all
      (fun (spec : App.vrf_spec) ->
        App.session_established svc.app ~vrf:spec.App.vrf)
      svc.scfg.App.vrfs
  in
  Engine.run_until_cond t.eng ~slice:(Time.ms 100) ~deadline ok

let service_routes svc ~vrf = App.routes svc.app ~vrf

let planned_migration t ?done_ svc =
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Planned_migration { service = svc.sid });
  Orch.Controller.begin_planned t.ctrl ~id:svc.sid;
  App.freeze_for_migration svc.app (fun () ->
      migrate t svc ~reason:Orch.Controller.App_failure
        ~done_:(fun replacement ->
          Orch.Controller.end_planned t.ctrl ~id:svc.sid replacement;
          match done_ with Some f -> f replacement | None -> ()))

(* --- Failure injection ----------------------------------------------------------------- *)

let on_primary_host t svc f =
  let name = Orch.Container.host_name svc.primary in
  Array.iter (fun h -> if String.equal (Orch.Host.name h) name then f h) t.hosts

(* The [Failure_injected] kind strings are part of the telemetry stream,
   so replay digests pin them; they are not [pp_failure_kind]'s names. *)
let inject_failure t svc (kind : Orch.Controller.failure_kind) =
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Failure_injected
         {
           service = svc.sid;
           kind =
             (match kind with
             | App_failure -> "app"
             | Container_failure -> "container"
             | Host_failure -> "host"
             | Host_network_failure -> "host-network");
         });
  match kind with
  | App_failure -> App.crash_bgp svc.app
  | Container_failure -> Orch.Container.fail svc.primary
  | Host_failure -> on_primary_host t svc Orch.Host.fail
  | Host_network_failure -> on_primary_host t svc Orch.Host.network_fail

