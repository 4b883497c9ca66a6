open Sim
module Deploy = Tensor.Deploy
module App = Tensor.App

type outcome = {
  desc : Descriptor.t;
  violations : Monitor.Checker.violation list;
  errors : string list;
  disabled : string list;
  digest : string;
  events : int;
}

let ok o = o.violations = [] && o.errors = []

let service_id = "chaos"
let vrf_name i = Printf.sprintf "v%d" i
let peer_name i = Printf.sprintf "peerAS%d" i
let peer_asn i = 65_010 + i
let vip i = Netsim.Addr.of_string (Printf.sprintf "203.0.113.%d" (10 + i))

(* Store faults deploy the survival machinery (retrying clients, a
   replica for the permanent crash, the held-ACK deadline) and arm the
   degraded_mode_exclusion oracle; they disable nothing. *)
let has_store_fault (d : Descriptor.t) =
  List.exists
    (function
      | Descriptor.Store_crash _ | Descriptor.Store_partition _
      | Descriptor.Store_slow _ | Descriptor.Region_store_outage _ -> true
      | _ -> false)
    d.Descriptor.faults

let has_permanent_store_crash (d : Descriptor.t) =
  List.exists
    (function Descriptor.Store_crash { dur_ms = 0; _ } -> true | _ -> false)
    d.Descriptor.faults

(* Fraction of the negotiated hold time (90 s in every chaos deployment)
   after which unachievable durability flips to degraded pass-through:
   13.5 s — orders of magnitude past any healthy-store hold time, well
   inside the peer's 90 s hold timer even when the blocked write is a
   keepalive at the 30 s mark (30 + 13.5 < 90). *)
let degrade_frac = 0.15

let disabled_checkers (d : Descriptor.t) =
  let has p = List.exists p d.Descriptor.faults in
  let rst = has (function Descriptor.Peer_rst _ -> true | _ -> false) in
  let cease = has (function Descriptor.Peer_cease _ -> true | _ -> false) in
  (* A peer-initiated reset is a legal session drop even while degraded:
     the exclusion oracle only polices resets the *store outage* caused. *)
  (if rst || cease then [ "no_peer_visible_reset"; "degraded_mode_exclusion" ]
   else [])
  @ if cease then [ "route_flap_absence" ] else []

(* --- Scenario assembly ---------------------------------------------------- *)

type ctx = {
  dep : Deploy.t;
  svc : Deploy.service;
  peers : Deploy.peering array;
}

let build (d : Descriptor.t) =
  let store = has_store_fault d in
  let dep =
    Deploy.build ~seed:d.Descriptor.seed ~hosts:d.Descriptor.hosts
      ~store_replica:(has_permanent_store_crash d) ()
  in
  let peers =
    Array.init d.Descriptor.peers (fun i ->
        Deploy.peering dep
          ~link_delay:(Time.us d.Descriptor.delay_us)
          ~asn:(peer_asn i) ~vrf:(vrf_name i) ~vip:(vip i) (peer_name i))
  in
  let svc =
    Deploy.deploy_service dep ~id:service_id ~local_asn:Deploy.local_asn
      ~store_resilient:store
      ~degrade_frac:(if store then degrade_frac else 0.)
      (Array.to_list (Array.map (fun p -> p.Deploy.spec) peers))
  in
  (* Only store-fault runs probe the store: the probe draws jittered
     heartbeat timers from the engine RNG, so arming it unconditionally
     would perturb every pinned replay digest. *)
  if store then
    Orch.Controller.register_store dep.Deploy.ctrl ~addr:dep.Deploy.store_addr;
  { dep; svc; peers }

let seed_routes (d : Descriptor.t) ctx =
  Array.iteri
    (fun i { Deploy.peer = pa; _ } ->
      Bgp.Speaker.originate pa.Deploy.pa_speaker ~vrf:(vrf_name i)
        (Workload.Prefixes.distinct_from
           ~base:(100_000 * (i + 1))
           d.Descriptor.peer_prefixes))
    ctx.peers;
  match App.speaker (Deploy.service_app ctx.svc) with
  | Some spk ->
      Array.iteri
        (fun i _ ->
          Bgp.Speaker.originate spk ~vrf:(vrf_name i)
            (Workload.Prefixes.distinct_from
               ~base:(500_000 + (10_000 * i))
               d.Descriptor.svc_prefixes))
        ctx.peers
  | None -> ()

(* Announce/withdraw cycles from the peers during the fault window. Only
   the peers churn: withdrawals are observed at the receiving node, so
   peer-originated churn never counts against [route_flap_absence]
   (which watches the remote AS surface). *)
let schedule_churn (d : Descriptor.t) ctx =
  let eng = ctx.dep.Deploy.eng in
  if d.Descriptor.churn > 0 then
    Array.iteri
      (fun i { Deploy.peer = pa; _ } ->
        for j = 0 to d.Descriptor.churn - 1 do
          let at = d.Descriptor.window_ms * (j + 1) / (d.Descriptor.churn + 1) in
          let prefixes =
            Workload.Prefixes.distinct_from
              ~base:(800_000 + (10_000 * i) + (100 * j))
              20
          in
          ignore
            (Engine.schedule_after eng (Time.ms at) (fun () ->
                 Bgp.Speaker.originate pa.Deploy.pa_speaker ~vrf:(vrf_name i)
                   prefixes));
          ignore
            (Engine.schedule_after eng
               (Time.ms (at + 2_000))
               (fun () ->
                 Bgp.Speaker.withdraw_origin pa.Deploy.pa_speaker
                   ~vrf:(vrf_name i) prefixes))
        done)
      ctx.peers

let schedule_fault ctx partitioned (f : Descriptor.fault) =
  let dep = ctx.dep in
  let eng = dep.Deploy.eng in
  let peer_link i =
    let pa = ctx.peers.(i).Deploy.peer in
    Netsim.Network.link_between dep.Deploy.net dep.Deploy.fabric
      pa.Deploy.pa_node
  in
  let kill kind =
    if kind = Orch.Controller.Host_network_failure then begin
      let name = Orch.Container.host_name (Deploy.service_container ctx.svc) in
      Array.iter
        (fun h ->
          if String.equal (Orch.Host.name h) name then
            partitioned := h :: !partitioned)
        dep.Deploy.hosts
    end;
    Deploy.inject_failure dep ctx.svc kind
  in
  (* A fleet token (host_kill, region_store_outage, rolling_upgrade) runs
     as its closest one-service equivalent, so any fleet campaign line
     also runs (and shrinks) under the ordinary chaos runner. Their
     correlated semantics live in [Fleet.Campaign]. *)
  let apply () =
    match f with
    | Descriptor.Kill { kind; _ } -> kill kind
    | Descriptor.Host_kill _ -> kill Orch.Controller.Host_failure
    | Descriptor.Planned _ | Descriptor.Rolling_upgrade _ ->
        Deploy.planned_migration dep ctx.svc
    | Descriptor.Heal _ ->
        List.iter Orch.Host.network_recover !partitioned;
        partitioned := []
    | Descriptor.Flap { vrf; dur_ms; _ } -> (
        match peer_link vrf with
        | Some l -> Netsim.Link.fail_for l (Time.ms dur_ms)
        | None -> ())
    | Descriptor.Loss { vrf; dur_ms; loss_pct; _ } -> (
        match peer_link vrf with
        | Some l ->
            Netsim.Link.set_loss l (float_of_int loss_pct /. 100.);
            ignore
              (Engine.schedule_after eng (Time.ms dur_ms) (fun () ->
                   Netsim.Link.set_loss l 0.))
        | None -> ())
    | Descriptor.Bfd_perturb { vrf; factor_pct; _ } -> (
        match
          App.bfd_session (Deploy.service_app ctx.svc) ~vrf:(vrf_name vrf)
        with
        | Some s ->
            let next =
              max (Time.ms 10) (Bfd.tx_interval s * factor_pct / 100)
            in
            Bfd.set_tx_interval s next
        | None -> ())
    | Descriptor.Peer_rst { vrf; _ } -> (
        let ph = ctx.peers.(vrf).Deploy.session in
        Option.iter Tcp.abort (Bgp.Speaker.peer_conn ph))
    | Descriptor.Peer_cease { vrf; _ } ->
        let { Deploy.peer = pa; session = ph; _ } = ctx.peers.(vrf) in
        Bgp.Speaker.stop_peer pa.Deploy.pa_speaker ph;
        ignore
          (Engine.schedule_after eng (Time.sec 1) (fun () ->
               Bgp.Speaker.start_peer pa.Deploy.pa_speaker ph))
    | Descriptor.Store_crash { dur_ms; _ } -> (
        Store.Server.crash dep.Deploy.store_server;
        if dur_ms = 0 then
          (* Permanent: the store cluster's own failover promotes the
             replica; clients find it on retry exhaustion. *)
          match dep.Deploy.store_replica_server with
          | Some rep ->
              ignore
                (Engine.schedule_after eng (Time.ms 300) (fun () ->
                     Store.Server.promote rep))
          | None -> ()
        else
          ignore
            (Engine.schedule_after eng (Time.ms dur_ms) (fun () ->
                 Store.Server.restart dep.Deploy.store_server)))
    | Descriptor.Store_partition { dur_ms; _ }
    | Descriptor.Region_store_outage { dur_ms; _ } ->
        let n = Store.Server.node dep.Deploy.store_server in
        Netsim.Node.set_up n false;
        ignore
          (Engine.schedule_after eng (Time.ms dur_ms) (fun () ->
               Netsim.Node.set_up n true))
    | Descriptor.Store_slow { dur_ms; factor_pct; _ } ->
        Store.Server.set_cost_factor dep.Deploy.store_server
          (float_of_int factor_pct /. 100.);
        ignore
          (Engine.schedule_after eng (Time.ms dur_ms) (fun () ->
               Store.Server.set_cost_factor dep.Deploy.store_server 1.))
  in
  ignore (Engine.schedule_after eng (Time.ms (Descriptor.fault_at f)) apply)

(* End-state digests, both directions per VRF, as in Check: the events
   feed the [rib_convergence] checker; the returned mismatch strings are
   the direct cross-check (belt and braces — they also catch the case
   where the service died and no snapshot could be emitted). *)
let end_state_check ctx =
  let dep = ctx.dep in
  let eng = dep.Deploy.eng in
  let errors = ref [] in
  (match App.speaker (Deploy.service_app ctx.svc) with
  | None ->
      errors := [ "end state: service speaker unavailable (instance dead?)" ]
  | Some spk ->
      Array.iteri
        (fun i { Deploy.peer = pa; _ } ->
          let vrf = vrf_name i in
          let (d_adv, d_svc), (d_out, d_peer) =
            Tensor.Check.snapshot_session eng ~vrf ~peer_name:(peer_name i)
              ~peer_speaker:pa.Deploy.pa_speaker ~peer_addr:pa.Deploy.pa_addr
              ~vip:(vip i) spk
          in
          if not (String.equal d_adv d_svc) then
            errors :=
              Printf.sprintf
                "%s: service RIB diverged from peer advertisement (%s vs %s)"
                vrf d_adv d_svc
              :: !errors;
          if not (String.equal d_out d_peer) then
            errors :=
              Printf.sprintf
                "%s: peer RIB diverged from service advertisement (%s vs %s)"
                vrf d_out d_peer
              :: !errors)
        ctx.peers);
  List.rev !errors

(* --- The run -------------------------------------------------------------- *)

let run ?out (d : Descriptor.t) =
  let disabled = disabled_checkers d in
  let cfg =
    {
      Monitor.Checker.peers = List.init d.Descriptor.peers peer_name;
      ack_deadline_s =
        (if has_store_fault d then Tensor.Check.ack_deadline_s ~degrade_frac
         else 0.);
    }
  in
  let r =
    Tensor.Check.checked ?out ~budgets:[] ~cfg
      ~scenario:("chaos:" ^ string_of_int d.Descriptor.seed)
    @@ fun () ->
    let ctx = build d in
    let eng = ctx.dep.Deploy.eng in
    let primaries =
      [ (service_id, Orch.Container.id (Deploy.service_container ctx.svc)) ]
    in
    if not (Deploy.wait_established ctx.dep ctx.svc ()) then
      (eng, primaries, fun () -> [ "sessions did not establish within 30 s" ])
    else begin
      seed_routes d ctx;
      Engine.run_for eng (Time.sec 10);
      schedule_churn d ctx;
      let partitioned = ref [] in
      List.iter (schedule_fault ctx partitioned) d.Descriptor.faults;
      Engine.run_for eng
        (Time.ms (d.Descriptor.window_ms + d.Descriptor.settle_ms));
      (eng, primaries, fun () -> end_state_check ctx)
    end
  in
  (* A run that raised reports the exception alone: its checker verdicts
     are cut mid-episode. *)
  let violations, errors =
    match r.value with
    | Ok errors ->
        ( List.filter
            (fun (v : Monitor.Checker.violation) ->
              not (List.mem v.Monitor.Checker.checker disabled))
            (Monitor.Health.violations r.report),
          errors )
    | Error e -> ([], [ Printf.sprintf "exception: %s" (Printexc.to_string e) ])
  in
  {
    desc = d;
    violations;
    errors;
    disabled;
    digest = r.digest;
    events = r.report.Monitor.Health.events_seen;
  }

let summary o =
  Printf.sprintf "descriptor: %s\nevents=%d digest=%s disabled=[%s]\n%s"
    (Descriptor.to_string o.desc) o.events o.digest
    (String.concat ", " o.disabled)
    (Tensor.Check.verdict ~violations:o.violations ~errors:o.errors)
