open Sim
module Deploy = Tensor.Deploy
module App = Tensor.App

(* Replication factor of every fleet service: two instances per replica
   group, always on distinct hosts of the same region, so a correlated
   single-host kill can never take a whole service down (the first
   fleet_slo invariant is checkable, not vacuous). *)
let replicas = 2

let vrf = "v0"
let local_asn = Deploy.local_asn
let region_name r = Printf.sprintf "r%d" r
let peer_name i = Printf.sprintf "fpeer%03d" i
let instance_asn i = 65_100 + i

let instance_vip i =
  Netsim.Addr.of_string (Printf.sprintf "10.20%d.%d.%d" (i / 20_000) (i / 200 mod 100) (10 + (i mod 200)))

(* Unreachable-store shed deadline as a fraction of the negotiated 90 s
   hold time: 4.5 s, small enough that a multi-second regional store
   outage demonstrably sheds and re-arms within one campaign. *)
let degrade_frac = 0.05
let ack_deadline_s = Tensor.Check.ack_deadline_s ~degrade_frac

let normalize_instances n = if n <= 0 then replicas else (n + 1) / 2 * 2

type instance = {
  id : string;
  service : string;
  region : int;
  svc : Deploy.service;
  peer : Deploy.peer_as;
  mutable shed_at : Time.t option;
}

type region = {
  rname : string;
  rhosts : int array;
  rstore : Store.Server.t;
  rstore_addr : Netsim.Addr.t;
}

type t = {
  dep : Deploy.t;
  regions : region array;
  instances : instance array;
}

let instance_host inst =
  Orch.Container.host_name (Deploy.service_container inst.svc)

let build ~seed ~hosts ~regions:nr ~instances:n () =
  if nr < 1 then invalid_arg "Fleet.Topology.build: regions < 1";
  if hosts < replicas * nr then
    invalid_arg "Fleet.Topology.build: need at least 2 hosts per region";
  let n = normalize_instances n in
  let dep = Deploy.build ~seed ~hosts () in
  let eng = dep.Deploy.eng in
  let base = hosts / nr and rem = hosts mod nr in
  let regions =
    Array.init nr (fun r ->
        let start = (r * base) + min r rem in
        let count = base + if r < rem then 1 else 0 in
        let rhosts = Array.init count (fun k -> start + k) in
        Array.iter
          (fun hi ->
            Orch.Controller.set_host_region dep.Deploy.ctrl
              ~host:(Orch.Host.name dep.Deploy.hosts.(hi))
              ~region:(region_name r))
          rhosts;
        (* Every region runs its own store server on the fabric: a
           regional store outage is one [Node.set_up], and only that
           region's instances shed. *)
        let node, _ =
          Netsim.Network.add_leaf dep.Deploy.net ~delay:(Time.us 100)
            ~uplink:dep.Deploy.fabric
            (Printf.sprintf "store-%s" (region_name r))
        in
        let rstore = Store.Server.create node in
        {
          rname = region_name r;
          rhosts;
          rstore;
          rstore_addr = Store.Server.addr rstore;
        })
  in
  let instances =
    Array.init n (fun i ->
        let s = i / replicas in
        let k = i mod replicas in
        let r = s mod nr in
        let reg = regions.(r) in
        let service = Printf.sprintf "s%03d" s in
        let id = Printf.sprintf "%s.%d" service k in
        (* Round-robin the region's hosts in replica pairs: the two
           replicas of a service always land on distinct hosts. *)
        let slot = s / nr in
        let hn = Array.length reg.rhosts in
        let host_idx = reg.rhosts.(((replicas * slot) + k) mod hn) in
        let { Deploy.peer = pa; spec; _ } =
          Deploy.peering dep ~asn:(instance_asn i) ~vrf ~vip:(instance_vip i)
            (peer_name i)
        in
        let svc =
          Deploy.deploy_service dep ~primary_host:host_idx
            ~backup_host:((host_idx + 1) mod hosts)
            ~store_resilient:true ~degrade_frac
            ~store_addr:reg.rstore_addr ~id ~local_asn [ spec ]
        in
        Telemetry.Bus.emit eng
          (Telemetry.Event.Fleet_placed
             {
               service;
               instance = id;
               region = reg.rname;
               host = Orch.Host.name dep.Deploy.hosts.(host_idx);
               container = Orch.Container.id (Deploy.service_container svc);
             });
        { id; service; region = r; svc; peer = pa; shed_at = None })
  in
  let t = { dep; regions; instances } in
  let by_id = Hashtbl.create (2 * n) in
  Array.iteri (fun i inst -> Hashtbl.replace by_id inst.id i) instances;
  (* Region-affine, replica-anti-affine placement for every migration:
     the controller's pick_host does the health/load arithmetic; the
     fleet adds "stay in your region" and "never share a host with your
     sibling replica". *)
  Deploy.set_service_picker dep (fun ~service_id ~avoid ->
      match Hashtbl.find_opt by_id service_id with
      | None -> Orch.Controller.pick_host dep.Deploy.ctrl ~avoid ()
      | Some i ->
          let inst = instances.(i) in
          let siblings =
            Array.fold_left
              (fun acc sib ->
                if
                  String.equal sib.service inst.service
                  && not (String.equal sib.id inst.id)
                then instance_host sib :: acc
                else acc)
              [] instances
          in
          Orch.Controller.pick_host dep.Deploy.ctrl
            ~region:(region_name inst.region)
            ~avoid:(List.rev_append siblings avoid)
            ());
  t

(* Two disjoint prefixes per peer AS and per instance: enough to check
   convergence, small enough to keep fleet set-up cheap. *)
let seed_routes t =
  Array.iteri
    (fun i inst ->
      Bgp.Speaker.originate inst.peer.Deploy.pa_speaker ~vrf
        (Workload.Prefixes.distinct_from
           ~base:(1_000_000 + (1_000 * i))
           2);
      match App.speaker (Deploy.service_app inst.svc) with
      | Some spk ->
          Bgp.Speaker.originate spk ~vrf
            (Workload.Prefixes.distinct_from
             ~base:(5_000_000 + (1_000 * i))
             2)
      | None -> ())
    t.instances

let wait_all_established t =
  let eng = t.dep.Deploy.eng in
  let deadline = Time.add (Engine.now eng) (Time.sec 120) in
  let ok () =
    Array.for_all
      (fun inst -> App.session_established (Deploy.service_app inst.svc) ~vrf)
      t.instances
  in
  Engine.run_until_cond eng ~slice:(Time.ms 250) ~deadline ok

(* One store prober per region, on the fleet telemetry cadence: on the
   down edge every Running instance of the region sheds
   ([Fleet_degraded]); on the up edge each sheds instance re-arms
   ([Fleet_rearmed]) with its degraded dwell. The per-event body is
   allocation-light (registered in the lint hot-path manifest). *)
let probe_period = Time.ms 500

let arm_store_probers t =
  let eng = t.dep.Deploy.eng in
  Array.iteri
    (fun r reg ->
      let was_down = ref false in
      ignore
        (Engine.every eng ~label:"fleet.store_probe" probe_period (fun () ->
             let down = not (Netsim.Node.is_up (Store.Server.node reg.rstore)) in
             if down <> !was_down then begin
               was_down := down;
               Array.iter
                 (fun inst ->
                   if inst.region = r then
                     if down then begin
                       if
                         inst.shed_at = None
                         && Orch.Container.state
                              (Deploy.service_container inst.svc)
                            = Orch.Container.Running
                       then begin
                         inst.shed_at <- Some (Engine.now eng);
                         Telemetry.Bus.emit eng
                           (Telemetry.Event.Fleet_degraded
                              { instance = inst.id; region = reg.rname })
                       end
                     end
                     else
                       match inst.shed_at with
                       | Some since ->
                           inst.shed_at <- None;
                           Telemetry.Bus.emit eng
                             (Telemetry.Event.Fleet_rearmed
                                {
                                  instance = inst.id;
                                  region = reg.rname;
                                  degraded_s =
                                    Time.to_sec_f
                                      (Time.diff (Engine.now eng) since);
                                })
                       | None -> ())
                 t.instances
             end)))
    t.regions
