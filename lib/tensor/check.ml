(* Checked scenarios: run a standard NSR episode with the runtime
   verifier attached and return its health report.

   Each scenario builds the Figure 3 deployment with telemetry on and a
   [Monitor.Checker] subscribed *before* any container boots, runs the
   episode, then emits paired [Rib_snapshot] events (what one side
   advertised vs what the other side holds) so the convergence checker
   can compare digests. Faults seeded through [Monitor.Faults] are left
   untouched, which is how the mutation tests drive these scenarios. *)

open Sim

let peer_name = "peerAS"
let vrf = "v0"
let scenarios = [ "failover"; "planned"; "split-brain"; "degraded" ]

(* The degraded scenario's deadline: fraction of the negotiated 90 s
   hold time after which an unreachable store suspends NSR. Shared with
   the checker config so [degraded_mode_exclusion] verifies the same
   bound the replicator promised. *)
let degrade_frac = 0.1
let hold_time_s = float_of_int Bgp.Session.default_hold_time

let kind_name k = Format.asprintf "%a" Orch.Controller.pp_failure_kind k

(* Digest both directions of the session: routes the peer advertised vs
   what the service's (possibly restored) RIB holds, and routes the
   service originated vs what the peer holds. Group keys ride in the
   event's [vrf] field; the checker requires equal digests per group.
   The per-direction digest pairs are also returned, so callers (the
   chaos runner) can cross-check directly without re-walking the RIBs. *)
let snapshot_session eng ~vrf ~peer_name ~peer_speaker ~peer_addr ~vip spk =
  let snap ~group ~node rib ~source_key =
    Telemetry.Bus.emit eng
      (Telemetry.Event.Rib_snapshot
         {
           node;
           vrf = group;
           size = List.length (Bgp.Rib.best_prefixes ~source_key rib);
           digest = Bgp.Rib.digest ~source_key rib;
         })
  in
  let peer_rib = Bgp.Speaker.rib peer_speaker ~vrf in
  let svc_rib = Bgp.Speaker.rib spk ~vrf in
  let local_key = "local/" ^ vrf in
  let svc_learned = vrf ^ "/" ^ Netsim.Addr.to_string peer_addr in
  let peer_learned = vrf ^ "/" ^ Netsim.Addr.to_string vip in
  let g_in = vrf ^ ":peer->service" and g_out = vrf ^ ":service->peer" in
  snap ~group:g_in ~node:(peer_name ^ ":advertised") peer_rib
    ~source_key:local_key;
  snap ~group:g_in ~node:"service:learned" svc_rib ~source_key:svc_learned;
  snap ~group:g_out ~node:"service:advertised" svc_rib ~source_key:local_key;
  snap ~group:g_out ~node:(peer_name ^ ":learned") peer_rib
    ~source_key:peer_learned;
  ( ( Bgp.Rib.digest ~source_key:local_key peer_rib,
      Bgp.Rib.digest ~source_key:svc_learned svc_rib ),
    ( Bgp.Rib.digest ~source_key:local_key svc_rib,
      Bgp.Rib.digest ~source_key:peer_learned peer_rib ) )

let emit_rib_snapshots (dep : Deploy.t) (peer : Deploy.peer_as) svc ~vip =
  match App.speaker (Deploy.service_app svc) with
  | None -> ()
  | Some spk ->
      ignore
        (snapshot_session dep.Deploy.eng ~vrf ~peer_name
           ~peer_speaker:peer.Deploy.pa_speaker ~peer_addr:peer.Deploy.pa_addr
           ~vip spk)

(* Shared episode skeleton: deployment, one peer AS, one service with a
   monitored primary, routes flowing both ways. *)
let setup ?(store_resilient = false) ?(degrade_frac = 0.) mon =
  let dep = Deploy.build () in
  let eng = dep.Deploy.eng in
  let peer = Deploy.add_peer_as dep ~asn:65010 peer_name in
  let vip = Netsim.Addr.of_string "203.0.113.10" in
  ignore (Deploy.peer_expects peer ~vrf ~vip ~local_asn:64900);
  let svc =
    Deploy.deploy_service dep ~id:"chk" ~local_asn:64900 ~store_resilient
      ~degrade_frac
      [ App.vrf_spec ~vrf ~vip ~peer_addr:peer.Deploy.pa_addr ~peer_asn:65010 () ]
  in
  Monitor.Checker.note_primary mon ~service:"chk"
    ~container:(Orch.Container.id (Deploy.service_container svc));
  if not (Deploy.wait_established dep svc ()) then
    (* lint: allow p2 — harness precondition: abort the scenario loudly before any measurement; not a product path *)
    failwith "check scenario: session did not establish";
  Bgp.Speaker.originate peer.Deploy.pa_speaker ~vrf
    (Workload.Prefixes.distinct 300);
  (match App.speaker (Deploy.service_app svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf
        (Workload.Prefixes.distinct_from ~base:500_000 100)
  | None -> ());
  Engine.run_for eng (Time.sec 10);
  (dep, peer, vip, svc)

(* --- The checked-run harness ------------------------------------------- *)

type 'a checked = {
  value : ('a, exn) result;
  report : Monitor.Health.report;
  digest : string;
}

(* End-of-run drain. An ACK held while its store write is still in
   flight at the horizon is not lost, only unfinished: run on in 1 ms
   slices until the checker's ledger balances, for at most 1 s of
   simulated time. A passing run holds nothing at the horizon and takes
   no extra step; an ACK still held after the bound stays a
   [queue_drain] violation. *)
let drain_slice = Time.ms 1
let drain_bound = Time.sec 1

let quiesce mon eng =
  if Monitor.Checker.outstanding_acks mon > 0 then
    ignore
      (Engine.run_until_cond eng ~slice:drain_slice
         ~deadline:(Time.add (Engine.now eng) drain_bound)
         (fun () -> Monitor.Checker.outstanding_acks mon <= 0))

(* Engine-cost section: how many events the run dispatched, plus
   per-label rows when the profiler is attached (by [?out], or by an
   enclosing [tensor-cli profile] or benchmark trace run). *)
let engine_cost ev0 =
  {
    Monitor.Health.ev_processed = Engine.global_processed_events () - ev0;
    profiled =
      (if Prof.Profiler.enabled () then
         List.map
           (fun (st : Prof.Profiler.stat) ->
             {
               Monitor.Health.er_label = st.label;
               er_events = st.events;
               er_wall_s = st.wall_s;
               er_alloc_bytes = st.alloc_bytes;
             })
           (Prof.Profiler.top ~by:Prof.Profiler.By_wall 8)
       else []);
  }

(* The observers of [?out]: causal recorder, metric-series sampler and
   engine profiler, all observation-only, so the digest and the report
   are the bare run's plus the report's [critical_path] and
   [engine.profiled] sections. Returns the step that detaches them and
   writes the artifacts once the report is cut; telemetry stays
   readable after the run, so the exports cover all of it. *)
let observe ~dir ~scenario =
  Causal.Recorder.reset ();
  Causal.Recorder.attach ();
  let series = Causal.Series.attach () in
  Prof.Profiler.attach ();
  fun report ->
    Prof.Profiler.detach ();
    Causal.Series.detach series;
    Causal.Recorder.detach ();
    let write file = Telemetry.Control.write_file (Filename.concat dir file) in
    Telemetry.Control.export_dir dir;
    write "health.json" (Monitor.Health.to_json report ^ "\n");
    write "spans.txt" (Format.asprintf "%a" Telemetry.Span.pp_tree ());
    write "trace.perfetto.json"
      (Causal.Perfetto.export ?critical:report.Monitor.Health.critical_path ());
    write "timeseries.jsonl" (Causal.Series.to_jsonl series);
    Prof.Export.write_dir ~name:("tensor " ^ scenario) dir

let checked ?out ?budgets ~cfg ~scenario body =
  Telemetry.Control.reset ();
  Telemetry.Control.set_enabled true;
  let mon = Monitor.Checker.install ~cfg () in
  let observed = Option.map (fun dir -> observe ~dir ~scenario) out in
  let ev0 = Engine.global_processed_events () in
  let value =
    try
      let eng, finish = body mon in
      quiesce mon eng;
      Ok (finish ())
    with e -> Error e
  in
  (* [Health.make] finalizes the checker while telemetry is still on. *)
  let report =
    Monitor.Health.make ?budgets ~engine:(engine_cost ev0) ~scenario mon
  in
  let buf = Buffer.create 65_536 in
  Telemetry.Bus.to_jsonl buf;
  let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  Telemetry.Control.set_enabled false;
  Option.iter (fun write_artifacts -> write_artifacts report) observed;
  { value; report; digest }

let verdict ~violations ~errors =
  if violations = [] && errors = [] then "result: PASS\n"
  else
    String.concat ""
      (List.map
         (fun (v : Monitor.Checker.violation) ->
           Printf.sprintf "violation: %s at %.3fs: %s\n" v.checker
             (Time.to_sec_f v.at) v.detail)
         violations
      @ List.map (fun e -> "error: " ^ e ^ "\n") errors
      @ [ "result: FAIL\n" ])

(* --- Checked scenarios ------------------------------------------------ *)

let checked_scenario ?out ?(ack_deadline_s = 0.) ~scenario body =
  let cfg =
    { Monitor.Checker.default_config with peers = [ peer_name ]; ack_deadline_s }
  in
  let r = checked ?out ~cfg ~scenario body in
  match r.value with Ok () -> r.report | Error e -> raise e

let failover ?out ?(kind = Orch.Controller.Container_failure) () =
  checked_scenario ?out ~scenario:("failover/" ^ kind_name kind) @@ fun mon ->
  let dep, peer, vip, svc = setup mon in
  Deploy.inject_failure dep svc kind;
  Engine.run_for dep.Deploy.eng (Time.sec 40);
  (dep.Deploy.eng, fun () -> emit_rib_snapshots dep peer svc ~vip)

let planned ?out () =
  checked_scenario ?out ~scenario:"planned" @@ fun mon ->
  let dep, peer, vip, svc = setup mon in
  Deploy.planned_migration dep svc;
  Engine.run_for dep.Deploy.eng (Time.sec 30);
  (dep.Deploy.eng, fun () -> emit_rib_snapshots dep peer svc ~vip)

let split_brain ?out () =
  checked_scenario ?out ~scenario:"split-brain" @@ fun mon ->
  let dep, peer, vip, svc = setup mon in
  let eng = dep.Deploy.eng in
  let h0 = dep.Deploy.hosts.(0) in
  Deploy.inject_failure dep svc Orch.Controller.Host_network_failure;
  Engine.run_for eng (Time.sec 20);
  (* Heal the partition: the old host returns with its container state
     intact — the checker watches that no second promotion or peer-visible
     flap follows. *)
  Orch.Host.network_recover h0;
  Engine.run_for eng (Time.sec 20);
  (eng, fun () -> emit_rib_snapshots dep peer svc ~vip)

let degraded ?out () =
  checked_scenario ?out
    ~ack_deadline_s:(degrade_frac *. hold_time_s)
    ~scenario:"degraded"
  @@ fun mon ->
  let dep, peer, vip, svc = setup ~store_resilient:true ~degrade_frac mon in
  let eng = dep.Deploy.eng in
  let store_node = Store.Server.node dep.Deploy.store_server in
  (* Partition the store (RAM intact), then keep routes arriving so the
     replicator accumulates held ACKs it cannot make durable. The
     deadline (9 s here) fires mid-outage: ACKs are shed, NSR drops to
     pass-through, the session stays up. Heal at 20 s; the probe finds
     the store, the app re-arms under a fresh epoch and re-audits
     Adj-RIB-Out, and the end-state snapshots must converge. *)
  Netsim.Node.set_up store_node false;
  Bgp.Speaker.originate peer.Deploy.pa_speaker ~vrf
    (Workload.Prefixes.distinct_from ~base:700_000 50);
  ignore
    (Engine.schedule_after eng (Time.sec 20) (fun () ->
         Netsim.Node.set_up store_node true));
  Engine.run_for eng (Time.sec 60);
  (eng, fun () -> emit_rib_snapshots dep peer svc ~vip)

let run ?kind ?out name =
  let out = Option.map (fun root -> Filename.concat root name) out in
  match name with
  | "failover" -> Ok (failover ?out ?kind ())
  | "planned" -> Ok (planned ?out ())
  | "split-brain" | "split_brain" -> Ok (split_brain ?out ())
  | "degraded" -> Ok (degraded ?out ())
  | _ ->
      Error
        (Printf.sprintf "unknown scenario %S (expected: %s)" name
           (String.concat " | " scenarios))
