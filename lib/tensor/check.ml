(* Checked scenarios: run a standard NSR episode with telemetry
   recording and return its health report, whose verdicts
   [Monitor.Checker] folds from the run's bus log.

   Each scenario builds the Figure 3 deployment with telemetry on
   *before* any container boots, so the log holds the whole episode,
   runs it, then emits paired [Rib_snapshot] events (what one side
   advertised vs what the other side holds) so the convergence checker
   can compare digests. Faults seeded through [Monitor.Faults] are left
   untouched, which is how the mutation tests drive these scenarios. *)

open Sim

let peer_name = "peerAS"
let vrf = "v0"
let scenarios = [ "failover"; "planned"; "split-brain"; "degraded" ]

let ack_deadline_s ~degrade_frac =
  degrade_frac *. float_of_int Bgp.Session.default_hold_time

(* The degraded scenario's fraction of the negotiated 90 s hold time
   after which an unreachable store suspends NSR. *)
let degrade_frac = 0.1

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

let emit_rib_snapshots (dep : Deploy.t) { Deploy.peer; spec; _ } svc =
  match App.speaker (Deploy.service_app svc) with
  | None -> ()
  | Some spk ->
      ignore
        (snapshot_session dep.Deploy.eng ~vrf ~peer_name
           ~peer_speaker:peer.Deploy.pa_speaker ~peer_addr:peer.Deploy.pa_addr
           ~vip:spec.App.vip spk)

(* Shared episode skeleton: Table 1's episode up to the failure, with
   the primary the split-brain checker starts from. *)
let setup ?store_resilient ?degrade_frac () =
  let dep, p, svc =
    Exp_table1.episode ?store_resilient ?degrade_frac ~id:"chk" ()
  in
  let primaries =
    [ ("chk", Orch.Container.id (Deploy.service_container svc)) ]
  in
  (dep, p, svc, primaries)

(* --- The checked-run harness ------------------------------------------- *)

type 'a checked = {
  value : ('a, exn) result;
  report : Monitor.Health.report;
  digest : string;
  entries : Telemetry.Bus.entry list;
}

(* End-of-run drain. An ACK held while its store write is still in
   flight at the horizon is not lost, only unfinished: run on in 1 ms
   slices until the held-ACK ledger balances, for at most 1 s of
   simulated time. Each poll folds only the entries appended since the
   previous one. A passing run holds nothing at the horizon and takes
   no extra step; an ACK still held after the bound stays a
   [queue_drain] violation. *)
let drain_slice = Time.ms 1
let drain_bound = Time.sec 1

let quiesce eng =
  let held = ref (Monitor.Checker.held_acks (Telemetry.Bus.events ())) in
  let polled = ref (Telemetry.Bus.mark ()) in
  if !held > 0 then
    ignore
      (Engine.run_until_cond eng ~slice:drain_slice
         ~deadline:(Time.add (Engine.now eng) drain_bound)
         (fun () ->
           held :=
             !held + Monitor.Checker.held_acks (Telemetry.Bus.since !polled);
           polled := Telemetry.Bus.mark ();
           !held <= 0))

(* Engine-cost section: how many events the run dispatched, plus the
   eight costliest labels when the profiler is attached (by [?out], or
   by an enclosing benchmark trace run). *)
let engine_cost ev0 =
  {
    Monitor.Health.ev_processed = Engine.global_processed_events () - ev0;
    profiled =
      (if not (Prof.Profiler.enabled ()) then []
       else
         Prof.Profiler.by_wall ()
         |> List.filteri (fun i _ -> i < 8)
         |> List.map (fun (st : Prof.Profiler.stat) ->
                {
                  Monitor.Health.er_label = st.label;
                  er_events = st.events;
                  er_wall_s = st.wall_s;
                  er_alloc_bytes = st.alloc_bytes;
                }));
  }

let jsonl entries =
  let buf = Buffer.create 65_536 in
  Telemetry.Bus.to_jsonl buf entries;
  Buffer.contents buf

(* The one writer of every [--out] artifact (see [observed] and
   [checked] in the interface): it attaches the observers and returns
   the step that detaches them and writes the common set, [events]
   being the run's bus log as JSONL, plus [extra], the caller's (file,
   contents) pairs. *)
let observe ~dir =
  Report.set_csv_dir (Some dir);
  (* The series sampler goes in after the profiler, so the profiler's
     samples leave its cost out. *)
  Prof.Profiler.attach ();
  let series = Causal.Series.attach () in
  fun events extra ->
    Causal.Series.detach series;
    Prof.Profiler.detach ();
    Report.set_csv_dir None;
    List.iter
      (fun (file, contents) ->
        Telemetry.Control.write_file (Filename.concat dir file) contents)
      ([
         ("metrics.json", Telemetry.Registry.to_json ());
         ("events.jsonl", events);
         ("timeseries.jsonl", Causal.Series.to_jsonl series);
         ("engine_cost.txt", Prof.Profiler.cost_table ());
       ]
      @ extra)

let observed ~dir f =
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let finish = observe ~dir in
  let r = f () in
  Telemetry.Gate.set false;
  finish (jsonl (Telemetry.Bus.events ())) [];
  r

(* The observers of [?out]: {!observe}'s, then the causal recorder,
   attached after the profiler so the profiler's samples leave its cost
   out. All are observation-only, so the digest and the report are the
   bare run's plus the report's [critical_path] and [engine.profiled]
   sections. Returns the step that detaches them and writes the
   artifacts once the report is cut; telemetry stays readable after the
   run, so the exports cover all of it. *)
let observe_checked ~dir =
  let finish = observe ~dir in
  Causal.Recorder.reset ();
  Causal.Recorder.attach ();
  fun events report ->
    Causal.Recorder.detach ();
    finish events
      [
        ("health.json", Monitor.Health.to_json report ^ "\n");
        ( "trace.perfetto.json",
          Causal.Perfetto.export ?critical:report.Monitor.Health.critical_path
            report.Monitor.Health.phases
        );
      ]

let checked ?out ?budgets ~cfg ~scenario body =
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let finish = Option.map (fun dir -> observe_checked ~dir) out in
  let ev0 = Engine.global_processed_events () in
  (* A body that raises hands back no primaries: the checkers then
     start from none. *)
  let primaries = ref [] in
  let value =
    try
      let eng, seeded, finish = body () in
      primaries := seeded;
      quiesce eng;
      Ok (finish ())
    with e -> Error e
  in
  let entries = Telemetry.Bus.events () in
  let report =
    Monitor.Health.make ?budgets ~engine:(engine_cost ev0) ~scenario
      ~primaries:!primaries ~entries cfg
  in
  let events = jsonl entries in
  let digest = Digest.to_hex (Digest.string events) in
  Telemetry.Gate.set false;
  Option.iter (fun write_artifacts -> write_artifacts events report) finish;
  { value; report; digest; entries }

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
    { Monitor.Checker.peers = [ peer_name ]; ack_deadline_s }
  in
  let r = checked ?out ~cfg ~scenario body in
  match r.value with Ok () -> r.report | Error e -> raise e

let failover ?out ?(kind = Orch.Controller.Container_failure) () =
  checked_scenario ?out ~scenario:("failover/" ^ kind_name kind) @@ fun () ->
  let dep, p, svc, primaries = setup () in
  Deploy.inject_failure dep svc kind;
  Engine.run_for dep.Deploy.eng (Time.sec 40);
  (dep.Deploy.eng, primaries, fun () -> emit_rib_snapshots dep p svc)

let planned ?out () =
  checked_scenario ?out ~scenario:"planned" @@ fun () ->
  let dep, p, svc, primaries = setup () in
  Deploy.planned_migration dep svc;
  Engine.run_for dep.Deploy.eng (Time.sec 30);
  (dep.Deploy.eng, primaries, fun () -> emit_rib_snapshots dep p svc)

let split_brain ?out () =
  checked_scenario ?out ~scenario:"split-brain" @@ fun () ->
  let dep, p, svc, primaries = setup () in
  let eng = dep.Deploy.eng in
  let h0 = dep.Deploy.hosts.(0) in
  Deploy.inject_failure dep svc Orch.Controller.Host_network_failure;
  Engine.run_for eng (Time.sec 20);
  (* Heal the partition: the old host returns with its container state
     intact — the checker watches that no second promotion or peer-visible
     flap follows. *)
  Orch.Host.network_recover h0;
  Engine.run_for eng (Time.sec 20);
  (eng, primaries, fun () -> emit_rib_snapshots dep p svc)

let degraded ?out () =
  checked_scenario ?out
    ~ack_deadline_s:(ack_deadline_s ~degrade_frac)
    ~scenario:"degraded"
  @@ fun () ->
  let dep, p, svc, primaries = setup ~store_resilient:true ~degrade_frac () in
  let eng = dep.Deploy.eng in
  let store_node = Store.Server.node dep.Deploy.store_server in
  (* Partition the store (RAM intact), then keep routes arriving so the
     replicator accumulates held ACKs it cannot make durable. The
     deadline (9 s here) fires mid-outage: ACKs are shed, NSR drops to
     pass-through, the session stays up. Heal at 20 s; the probe finds
     the store, the app re-arms under a fresh epoch and re-audits
     Adj-RIB-Out, and the end-state snapshots must converge. *)
  Netsim.Node.set_up store_node false;
  Bgp.Speaker.originate p.Deploy.peer.Deploy.pa_speaker ~vrf
    (Workload.Prefixes.distinct_from ~base:700_000 50);
  ignore
    (Engine.schedule_after eng (Time.sec 20) (fun () ->
         Netsim.Node.set_up store_node true));
  Engine.run_for eng (Time.sec 60);
  (eng, primaries, fun () -> emit_rib_snapshots dep p svc)

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
