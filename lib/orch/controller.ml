open Sim
open Netsim

type failure_kind =
  | App_failure
  | Container_failure
  | Host_failure
  | Host_network_failure

let m_failures = Telemetry.Registry.counter "orch.failures_detected"
let m_migrations = Telemetry.Registry.counter "orch.migrations"
let m_hosts_failed = Telemetry.Registry.counter "orch.hosts_failed"

let pp_failure_kind fmt k =
  Format.pp_print_string fmt
    (match k with
    | App_failure -> "application"
    | Container_failure -> "container"
    | Host_failure -> "host-machine"
    | Host_network_failure -> "host-network")

type Rpc.body += Report_app_failure of string

(* The controller's timers (§3.3.3): heartbeat period and reply timeout,
   the host-level confirmation delay, migration preparation per container
   and per host, and the timeouts of the IP SLA probes, the agent
   cross-check, host control-plane calls (fence, container check, kill)
   and the direct container re-probe before declaring a virtual-network
   failure. *)
let grpc_interval = Time.ms 300
let grpc_timeout = Time.ms 150
let confirm_timer = Time.sec 3
let initiate_container = Time.ms 100
let initiate_host = Time.ms 200
let ipsla_timeout = Time.ms 150
let agent_timeout = Time.ms 400
let host_ctl_timeout = Time.ms 300
let reprobe_timeout = Time.ms 300

type managed = {
  mid : string;
  mutable cont : Container.t;
  mutable phase : [ `Healthy | `Suspect | `Migrating ];
  (* Bumped on every transition into [`Migrating]. Asynchronous
     continuations (the store-unreachable wait chain, the migrator's
     [done_]) capture the epoch at arm time and become no-ops when it
     has moved on — a planned migration that supersedes a deferred
     failure migration kills the parked chain instead of letting it
     double-schedule the instance after the store heals. *)
  mutable mig_epoch : int;
}

type host_entry = {
  host : Host.t;
  mutable hphase : [ `Healthy | `Confirming | `Failed ];
  mutable hregion : string option;
}

(* Liveness of the replicated store, maintained by {!register_store}.
   A store outage is NOT an instance failure: migrating while the store
   is unreachable would hand the replacement an empty state and reset
   the peer — exactly what NSR exists to prevent — so migrations are
   deferred until the store answers again. *)
type store_probe = {
  saddr : Addr.t;
  mutable sok : bool;
  mutable down_since : Time.t option;
}

type t = {
  cname : string;
  cnode : Node.t;
  caddr : Addr.t;
  eng : Engine.t;
  ep : Rpc.endpoint;
  mutable hosts : host_entry list;
  mutable agents : Agent.t list;
  managed_tbl : (string, managed) Hashtbl.t;
  (* Host name -> ids of managed containers currently living there.
     Maintained on [manage] and on every migration completion, so a
     host-failure sweep touches only that host's residents instead of
     rescanning the whole fleet ([declare_host_failed] used to fold the
     full table — O(instances) per failed host). *)
  host_index : (string, (string, unit) Hashtbl.t) Hashtbl.t;
  (* Failure migrations in flight or deferred (planned migrations are
     not counted): the fleet upgrade planner pauses its waves while
     this is non-zero. *)
  mutable n_fail_migrating : int;
  mutable migrator :
    reason:failure_kind ->
    id:string ->
    failed:Container.t ->
    done_:(Container.t -> unit) ->
    unit;
  mutable quarantine : string list;
  mutable store_probe : store_probe option;
}

let node t = t.cnode
let addr t = t.caddr
let report_endpoint_service = "report"
let quarantined t = t.quarantine

let managed_container t ~id =
  match Hashtbl.find_opt t.managed_tbl id with
  | Some m -> Some m.cont
  | None -> None

let set_migrator t f = t.migrator <- f

let host_entry_of t name =
  List.find_opt (fun e -> String.equal (Host.name e.host) name) t.hosts

(* --- Placement index ------------------------------------------------------ *)

let index_add t ~host id =
  let set =
    match Hashtbl.find_opt t.host_index host with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace t.host_index host s;
        s
  in
  Hashtbl.replace set id ()

let index_remove t ~host id =
  match Hashtbl.find_opt t.host_index host with
  | Some s -> Hashtbl.remove s id
  | None -> ()

let index_move t m replacement =
  let old_host = Container.host_name m.cont in
  let new_host = Container.host_name replacement in
  if not (String.equal old_host new_host) then begin
    index_remove t ~host:old_host m.mid;
    index_add t ~host:new_host m.mid
  end

let managed_on t host =
  match Hashtbl.find_opt t.host_index host with
  | Some s -> Hashtbl.length s
  | None -> 0

let failure_migrations_active t = t.n_fail_migrating

(* --- Migration driver ---------------------------------------------------- *)

let store_reachable t =
  match t.store_probe with None -> true | Some p -> p.sok

let proceed_migration t m reason =
  begin
    let epoch = m.mig_epoch in
    let initiate_delay =
      match reason with
      | Host_failure | Host_network_failure -> initiate_host
      | App_failure | Container_failure -> initiate_container
    in
    Telemetry.Registry.incr m_failures;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Failure_detected
           {
             id = m.mid;
             kind = Format.asprintf "%a" pp_failure_kind reason;
           });
    ignore
      (Engine.schedule_after t.eng ~label:"orch.migrate" initiate_delay
         (fun () ->
           if m.mig_epoch = epoch then begin
             if Telemetry.Gate.on () then
               Telemetry.Bus.emit t.eng
                 (Telemetry.Event.Migration_initiated { id = m.mid });
             t.migrator ~reason ~id:m.mid ~failed:m.cont
               ~done_:(fun replacement ->
                 if m.mig_epoch = epoch then begin
                   Telemetry.Registry.incr m_migrations;
                   if Telemetry.Gate.on () then
                     Telemetry.Bus.emit t.eng
                       (Telemetry.Event.Migration_done
                          {
                            id = m.mid;
                            host = Container.host_name replacement;
                            container = Container.id replacement;
                          });
                   index_move t m replacement;
                   m.cont <- replacement;
                   m.phase <- `Healthy;
                   t.n_fail_migrating <- t.n_fail_migrating - 1
                 end)
           end))
  end

let start_migration t m reason =
  if m.phase <> `Migrating then begin
    m.phase <- `Migrating;
    m.mig_epoch <- m.mig_epoch + 1;
    t.n_fail_migrating <- t.n_fail_migrating + 1;
    let epoch = m.mig_epoch in
    if store_reachable t then proceed_migration t m reason
    else begin
      (* Store-unreachable, not instance-dead: defer until the store
         answers. The phase flip above parks the heartbeat ticks, so a
         store outage cannot cascade into spurious failovers. Each
         rearm re-checks the epoch: if a planned migration (or any
         newer transition) took the instance over while we were parked,
         this chain is stale and must die — proceeding would migrate a
         healthy instance a second time. *)
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Migration_deferred
             { id = m.mid; reason = "store-unreachable" });
      let rec wait () =
        ignore
          (Engine.schedule_after t.eng ~label:"orch.migrate" grpc_interval
             (fun () ->
               if m.mig_epoch = epoch then
                 if store_reachable t then proceed_migration t m reason
                 else wait ()))
      in
      wait ()
    end
  end

(* --- Host-level localization (E3/E5) ------------------------------------- *)

let verify_host t (he : host_entry) k =
  (* Independent measurements: our probe and the agent's IP SLA. All must
     fail for the host to be presumed dead. *)
  let target = Host.addr he.host in
  Rpc.ping t.ep ~timeout:ipsla_timeout ~dst:target ~service:"ipsla"
    (fun own_ok ->
      if own_ok then k false
      else
        match t.agents with
        | [] -> k true
        | agent :: _ ->
            Rpc.call t.ep ~timeout:agent_timeout ~dst:(Agent.addr agent)
              ~service:"agent_ctl" (Agent.Agent_check target) (function
              | Ok (Agent.Agent_check_result ok) -> k (not ok)
              | Ok _ | Error _ ->
                  (* Agent unreachable: fall back to our own (failed)
                     measurement. *)
                  k true))

let declare_host_failed t (he : host_entry) =
  he.hphase <- `Failed;
  t.quarantine <- Host.name he.host :: t.quarantine;
  Telemetry.Registry.incr m_hosts_failed;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Host_failed { host = Host.name he.host });
  (* Best-effort fence; unreachable hosts fence themselves via the
     lease. *)
  Rpc.call t.ep ~timeout:host_ctl_timeout ~dst:(Host.addr he.host)
    ~service:"host_ctl" Host.Host_fence (fun _ -> ());
  (* Migrate every managed container living there, in name order so the
     replayed migration sequence is deterministic. The host index keeps
     this sweep proportional to the residents of the failed host, not
     to the fleet. *)
  match Hashtbl.find_opt t.host_index (Host.name he.host) with
  | None -> ()
  | Some residents ->
      Det.iter_sorted ~compare:String.compare
        (fun id () ->
          match Hashtbl.find_opt t.managed_tbl id with
          | Some m
            when String.equal (Container.host_name m.cont) (Host.name he.host)
            ->
              start_migration t m Host_failure
          | Some _ | None -> ())
        residents

let suspect_host t (he : host_entry) =
  if he.hphase = `Healthy then begin
    he.hphase <- `Confirming;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Host_suspect { host = Host.name he.host });
    (* The 3-second confirmation timer starts at suspicion; verification
       runs concurrently and can clear the suspicion early, so transient
       network jitter never triggers migration (§3.3.3). *)
    verify_host t he (fun dead ->
        if not dead then he.hphase <- `Healthy);
    ignore
      (Engine.schedule_after t.eng ~label:"orch.confirm" confirm_timer
         (fun () ->
           if he.hphase = `Confirming then
             verify_host t he (fun still_dead ->
                 if still_dead then declare_host_failed t he
                 else he.hphase <- `Healthy)))
  end

(* --- Container heartbeats (E2/E4 detection) ------------------------------ *)

let check_container_via_host t m k =
  match host_entry_of t (Container.host_name m.cont) with
  | None -> k `Host_unreachable
  | Some he ->
      Rpc.call t.ep ~timeout:host_ctl_timeout ~dst:(Host.addr he.host)
        ~service:"host_ctl"
        (Host.Host_check_container (Container.id m.cont)) (function
        | Ok (Host.Host_container_state st) -> k (`Host_says st)
        | Ok _ -> k (`Host_says "unknown")
        | Error _ -> k `Host_unreachable)

(* Suspicion-resolving callbacks arrive asynchronously (RPC timeouts) and
   may land after a migration has already started from another detection
   path (host localization, app report). They must only downgrade
   [`Suspect] — clobbering [`Migrating] back to [`Healthy] would re-arm
   the heartbeat ticks mid-migration and let a second, faster migration
   race the first one into a split brain. *)
let resolve_suspect m = if m.phase = `Suspect then m.phase <- `Healthy

let heartbeat_miss t m =
  if m.phase = `Healthy then begin
    m.phase <- `Suspect;
    check_container_via_host t m (function
      | `Host_says st -> (
          resolve_suspect m;
          if st = "failed" || st = "stopped" || st = "unknown" then
            start_migration t m Container_failure
          else
            (* The host says the container runs, yet its heartbeat was
               missed. Re-probe before concluding a virtual-network
               failure (E4): the original miss may have straddled a
               transient glitch. *)
            Rpc.ping t.ep ~timeout:reprobe_timeout
              ~dst:(Container.veth_addr m.cont) ~service:"health" (fun ok ->
                if not ok then
                  match host_entry_of t (Container.host_name m.cont) with
                  | Some he ->
                      Rpc.call t.ep ~timeout:host_ctl_timeout
                        ~dst:(Host.addr he.host) ~service:"host_ctl"
                        (Host.Host_kill_container (Container.id m.cont))
                        (fun _ -> start_migration t m Container_failure)
                  | None -> start_migration t m Container_failure))
      | `Host_unreachable -> (
          resolve_suspect m;
          (* Escalate to host-level localization. *)
          match host_entry_of t (Container.host_name m.cont) with
          | Some he -> suspect_host t he
          | None -> ()))
  end

let start_heartbeats t m =
  let tick () =
    match m.phase with
    | `Migrating -> ()
    | `Healthy | `Suspect ->
        let target = Container.veth_addr m.cont in
        Rpc.ping t.ep ~timeout:grpc_timeout ~dst:target
          ~service:"health" (fun ok ->
            if not ok then heartbeat_miss t m)
  in
  ignore
    (Engine.every t.eng ~label:"orch.heartbeat" ~jitter:0.1 grpc_interval
       tick)

let begin_planned t ~id =
  match Hashtbl.find_opt t.managed_tbl id with
  | Some m ->
      (* Superseding an in-flight or deferred failure migration: the
         epoch bump orphans its wait chain and callbacks (they check
         the epoch before acting), so balance its in-flight count
         here. *)
      if m.phase = `Migrating then
        t.n_fail_migrating <- t.n_fail_migrating - 1;
      m.phase <- `Migrating;
      m.mig_epoch <- m.mig_epoch + 1
  | None -> ()

let end_planned t ~id cont =
  match Hashtbl.find_opt t.managed_tbl id with
  | Some m ->
      index_move t m cont;
      m.cont <- cont;
      m.phase <- `Healthy
  | None -> ()

let manage t ~id cont =
  let m = { mid = id; cont; phase = `Healthy; mig_epoch = 0 } in
  Hashtbl.replace t.managed_tbl id m;
  index_add t ~host:(Container.host_name cont) id;
  start_heartbeats t m

(* --- Host heartbeats (feeds the lease and E3 detection) ------------------- *)

let register_host t host =
  let he = { host; hphase = `Healthy; hregion = None } in
  t.hosts <- he :: t.hosts;
  ignore
    (Engine.every t.eng ~label:"orch.host_mon" ~jitter:0.1 grpc_interval
       (fun () ->
         if he.hphase <> `Failed then
           Rpc.ping t.ep ~timeout:grpc_timeout ~dst:(Host.addr host)
             ~service:"health" (fun ok ->
               if (not ok) && he.hphase = `Healthy then suspect_host t he)))

let register_agent t agent = t.agents <- agent :: t.agents

let set_host_region t ~host ~region =
  match host_entry_of t host with
  | Some he -> he.hregion <- Some region
  | None -> ()

(* Region-aware anti-affinity placement: healthy hosts only (probe
   phase healthy, up, unfenced, not quarantined), restricted to
   [region] when given, never one of [avoid] (the failed host and the
   hosts carrying sibling replicas). Least-loaded wins, host name as
   the tie-break, so the choice is a pure function of controller state
   and replays deterministically. Returns [None] when no host
   qualifies — the caller defers rather than thrashing. *)
let pick_host t ?region ?(avoid = []) () =
  let eligible he =
    he.hphase = `Healthy
    && Host.is_up he.host
    && (not (Host.is_fenced he.host))
    && (not (List.mem (Host.name he.host) t.quarantine))
    && (not (List.mem (Host.name he.host) avoid))
    &&
    match region with
    | None -> true
    | Some r -> (
        match he.hregion with Some r' -> String.equal r r' | None -> false)
  in
  let best =
    List.fold_left
      (fun acc he ->
        if not (eligible he) then acc
        else
          let name = Host.name he.host in
          let load = managed_on t name in
          match acc with
          | Some (bload, bname, _)
            when bload < load || (bload = load && String.compare bname name < 0)
            ->
              acc
          | _ -> Some (load, name, he.host))
      None t.hosts
  in
  match best with Some (_, _, h) -> Some h | None -> None

(* The store is probed like a host, but on the ["kv_health"] service the
   store process answers only while alive — so a crash, a partition and
   a dead node all read as unreachable. One missed probe flips the flag:
   for migration deferral a false "down" merely delays initiation by one
   probe interval, which is the safe direction. *)
let register_store t ~addr =
  let p = { saddr = addr; sok = true; down_since = None } in
  t.store_probe <- Some p;
  ignore
    (Engine.every t.eng ~label:"orch.store_probe" ~jitter:0.1
       grpc_interval (fun () ->
         Rpc.ping t.ep ~timeout:grpc_timeout ~dst:p.saddr
           ~service:"kv_health" (fun ok ->
             if ok then begin
               (match p.down_since with
               | Some since ->
                   Telemetry.Bus.emit t.eng
                     (Telemetry.Event.Store_recovered
                        {
                          node = t.cname;
                          outage_s =
                            Time.to_sec_f (Time.diff (Engine.now t.eng) since);
                        })
               | None -> ());
               p.sok <- true;
               p.down_since <- None
             end
             else if p.sok then begin
               p.sok <- false;
               p.down_since <- Some (Engine.now t.eng);
               Telemetry.Bus.emit t.eng
                 (Telemetry.Event.Store_unreachable { node = t.cname })
             end)))

let release_quarantine t host =
  Host.reset host;
  (match host_entry_of t (Host.name host) with
  | Some he -> he.hphase <- `Healthy
  | None -> ());
  t.quarantine <-
    List.filter (fun n -> not (String.equal n (Host.name host))) t.quarantine

let create net ~fabric cname =
  let cnode, caddr =
    Network.add_leaf net ~delay:(Time.us 20) ~uplink:fabric cname
  in
  let t =
    {
      cname;
      cnode;
      caddr;
      eng = Network.engine net;
      ep = Rpc.endpoint cnode;
      hosts = [];
      agents = [];
      managed_tbl = Hashtbl.create 32;
      host_index = Hashtbl.create 32;
      n_fail_migrating = 0;
      migrator = (fun ~reason:_ ~id:_ ~failed:_ ~done_:_ -> ());
      quarantine = [];
      store_probe = None;
    }
  in
  Rpc.serve t.ep ~service:report_endpoint_service (fun ~src:_ body ~reply ->
      (match body with
      | Report_app_failure id -> (
          match Hashtbl.find_opt t.managed_tbl id with
          | Some m -> start_migration t m App_failure
          | None -> ())
      | _ -> ());
      reply Rpc.Pong);
  t
