open Sim
module Deploy = Tensor.Deploy
module Descriptor = Chaos.Descriptor

(* Fleet fault campaigns: the chaos grammar's fleet tokens executed with
   their correlated semantics — a [host_kill] takes out every instance
   co-located on the busiest host at once, a [region_store_outage]
   sheds a whole region together, a [rolling_upgrade] drains the fleet
   through the wave planner. Single-instance tokens (kills, planned)
   target the first instance, so mixed descriptors stay meaningful. *)

type spec = {
  hosts : int;
  regions : int;
  instances : int;
  seed : int;
  faults : Descriptor.fault list;
  window_ms : int;  (** Fault window after convergence + route seeding. *)
  settle_ms : int;
  ctrl_delay_us : int;
      (** Controller uplink one-way delay: the centralization knob
          (per-host ~50 µs, regional ~500 µs, global ~5000 µs). *)
}

let default_campaign = "host_kill@5000,region_store_outage@20000+8000"

let default_spec =
  {
    hosts = 8;
    regions = 2;
    instances = 20;
    seed = 42;
    faults = [];
    window_ms = 60_000;
    settle_ms = 10_000;
    ctrl_delay_us = 500;
  }

(* Auto-size the window so the schedule fits: the wave needs roughly
   [instances/bound] batches of ~2.5 s each, everything else just its
   own offset, plus slack for failovers and re-arms. *)
let auto_window spec =
  let n = Topology.normalize_instances spec.instances in
  let need =
    List.fold_left
      (fun acc f ->
        let e =
          match f with
          | Descriptor.Rolling_upgrade { at_ms; bound } ->
              at_ms + (n * 2_500 / max 1 (min n bound)) + 10_000
          | Descriptor.Region_store_outage { at_ms; dur_ms } ->
              at_ms + dur_ms + 10_000
          | f -> Descriptor.fault_at f + 15_000
        in
        max acc e)
      spec.window_ms spec.faults
  in
  { spec with window_ms = need }

let check_faults faults =
  List.fold_left
    (fun acc f ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
          match f with
          | Descriptor.Host_kill _ | Descriptor.Region_store_outage _
          | Descriptor.Rolling_upgrade _ | Descriptor.Kill _
          | Descriptor.Planned _ ->
              Ok ()
          | f ->
              Error
                (Printf.sprintf
                   "fault %S has no fleet-scale semantics (supported: \
                    host_kill, region_store_outage, rolling_upgrade, kill.*, \
                    planned)"
                   (Descriptor.fault_kind_name f))))
    (Ok ()) faults

type outcome = {
  spec : spec;
  checkers : (string * Monitor.Checker.result) list;
  violations : Monitor.Checker.violation list;
  errors : string list;
  slo : Slo.report;
  digest : string;
  events : int;
  convergence_s : float;  (** Boot → every session Established. *)
}

let ok o = o.violations = [] && o.errors = []

let has_store_outage spec =
  List.exists
    (function Descriptor.Region_store_outage _ -> true | _ -> false)
    spec.faults

(* The busiest host right now (most fleet primaries; ties to the
   lexicographically smallest name): the correlated-kill target. *)
let busiest_host topo =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun inst ->
      let h = Topology.instance_host inst in
      Hashtbl.replace counts h
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts h)))
    topo.Topology.instances;
  Det.fold_sorted ~compare:String.compare
    (fun name n best ->
      match best with
      | Some (bn, _) when bn >= n -> best
      | _ -> Some (n, name))
    counts None
  |> Option.map snd

(* The region holding the most instances (ties to the lowest index):
   the regional-outage target. *)
let busiest_region topo =
  let counts = Array.make (Array.length topo.Topology.regions) 0 in
  Array.iter
    (fun inst ->
      counts.(inst.Topology.region) <- counts.(inst.Topology.region) + 1)
    topo.Topology.instances;
  let best = ref 0 in
  Array.iteri (fun r n -> if n > counts.(!best) then best := r) counts;
  !best

let schedule_fault topo (f : Descriptor.fault) =
  let dep = topo.Topology.dep in
  let eng = dep.Deploy.eng in
  let note name detail =
    Telemetry.Bus.emit eng
      (Telemetry.Event.Generic { cat = Telemetry.Event.Fleet; name; detail })
  in
  let apply () =
    match f with
    | Descriptor.Host_kill _ -> (
        match busiest_host topo with
        | None -> ()
        | Some name ->
            note "host_kill" name;
            Array.iter
              (fun h ->
                if String.equal (Orch.Host.name h) name then Orch.Host.fail h)
              dep.Deploy.hosts)
    | Descriptor.Region_store_outage { dur_ms; _ } ->
        let r = busiest_region topo in
        let reg = topo.Topology.regions.(r) in
        note "region_store_outage" reg.Topology.rname;
        let node = Store.Server.node reg.Topology.rstore in
        Netsim.Node.set_up node false;
        ignore
          (Engine.schedule_after eng ~label:"fleet.store_heal"
             (Time.ms dur_ms) (fun () ->
               note "region_store_heal" reg.Topology.rname;
               Netsim.Node.set_up node true))
    | Descriptor.Rolling_upgrade { bound; _ } ->
        note "rolling_upgrade" (string_of_int bound);
        ignore (Waves.start topo ~bound)
    | Descriptor.Kill { kind; _ } ->
        Deploy.inject_failure dep topo.Topology.instances.(0).Topology.svc kind
    | Descriptor.Planned _ ->
        Deploy.planned_migration dep topo.Topology.instances.(0).Topology.svc
    | _ -> ()
  in
  ignore
    (Engine.schedule_after eng ~label:"fleet.fault"
       (Time.ms (Descriptor.fault_at f))
       apply)

(* A schedule with no fleet-scale semantics ends the body before the
   topology is built; the run still finalizes and digests as usual. *)
exception Rejected of string

let run ?out spec =
  let spec = auto_window spec in
  let n = Topology.normalize_instances spec.instances in
  let cfg =
    {
      Monitor.Checker.peers = List.init n Topology.peer_name;
      ack_deadline_s =
        (if has_store_outage spec then Topology.ack_deadline_s else 0.);
    }
  in
  let convergence_s = ref 0. in
  (* Captured rather than read off the rings, which a large fleet
     overruns; the capture survives the harness's telemetry reset. *)
  let r, entries =
    Telemetry.Control.capture @@ fun () ->
    Tensor.Check.checked ?out ~budgets:[] ~cfg
      ~scenario:("fleet:" ^ string_of_int spec.seed)
    @@ fun mon ->
    Result.iter_error (fun e -> raise (Rejected e)) (check_faults spec.faults);
    let topo =
      Topology.build ~seed:spec.seed ~hosts:spec.hosts ~regions:spec.regions
        ~instances:n ()
    in
    let dep = topo.Topology.dep in
    let eng = dep.Deploy.eng in
    (* The centralization knob: how far away the controller sits. *)
    (match
       Netsim.Network.link_between dep.Deploy.net dep.Deploy.fabric
         (Orch.Controller.node dep.Deploy.ctrl)
     with
    | Some l -> Netsim.Link.set_delay l (Time.us spec.ctrl_delay_us)
    | None -> ());
    Array.iter
      (fun inst ->
        Monitor.Checker.note_primary mon ~service:inst.Topology.id
          ~container:
            (Orch.Container.id (Deploy.service_container inst.Topology.svc)))
      topo.Topology.instances;
    Topology.arm_store_probers topo;
    if not (Topology.wait_all_established topo) then
      (eng, fun () -> [ "fleet sessions did not establish within 120 s" ])
    else begin
      convergence_s := Time.to_sec_f (Engine.now eng);
      Topology.seed_routes topo;
      Engine.run_for eng (Time.sec 5);
      List.iter (schedule_fault topo) spec.faults;
      Engine.run_for eng (Time.ms (spec.window_ms + spec.settle_ms));
      (* Graceful-degradation end state: every instance either runs
         or is deferred with its region genuinely out of capacity —
         a silent dead instance is an error even when no checker
         names it. *)
      ( eng,
        fun () ->
          Array.to_list topo.Topology.instances
          |> List.filter_map (fun inst ->
                 if
                   Orch.Container.state
                     (Deploy.service_container inst.Topology.svc)
                   <> Orch.Container.Running
                   && Option.is_some
                        (Orch.Controller.pick_host dep.Deploy.ctrl
                           ~region:(Topology.region_name inst.Topology.region)
                           ())
                 then
                   Some
                     (Printf.sprintf
                        "instance %s ended the run not Running with healthy \
                         in-region capacity available"
                        inst.Topology.id)
                 else None) )
    end
  in
  let slo = Slo.of_entries entries in
  Option.iter
    (fun dir ->
      Telemetry.Control.write_file (Filename.concat dir "slo.json")
        (Slo.to_json slo ^ "\n"))
    out;
  {
    spec;
    checkers = r.report.Monitor.Health.checkers;
    violations = Monitor.Health.violations r.report;
    errors =
      (match r.value with
      | Ok errors -> errors
      | Error (Rejected e) -> [ e ]
      | Error e -> [ Printf.sprintf "exception: %s" (Printexc.to_string e) ]);
    slo;
    digest = r.digest;
    events = r.report.Monitor.Health.events_seen;
    convergence_s = !convergence_s;
  }

let summary o =
  Printf.sprintf
    "fleet: %d instances, %d regions, %d hosts, seed %d, ctrl %dus\n\
     campaign: %s\n\
     convergence=%.2fs events=%d digest=%s\n\
     %s%s"
    (Topology.normalize_instances o.spec.instances)
    o.spec.regions o.spec.hosts o.spec.seed o.spec.ctrl_delay_us
    (match o.spec.faults with
    | [] -> "-"
    | fs -> String.concat "," (List.map Descriptor.fault_to_string fs))
    o.convergence_s o.events o.digest (Slo.to_text o.slo)
    (Tensor.Check.verdict ~violations:o.violations ~errors:o.errors)
