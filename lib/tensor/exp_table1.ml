open Sim
open Netsim

type timeline = {
  kind : Orch.Controller.failure_kind;
  frequency_pct : int;
  detect_s : float;
  initiate_s : float;
  migrate_s : float;
  tcp_s : float;
  total_s : float;
  peer_session_drops : int;
  peer_routes_lost : int;
  baseline_total_s : float;
}

let frequency_of = function
  | Orch.Controller.App_failure -> 3
  | Orch.Controller.Container_failure -> 13
  | Orch.Controller.Host_failure -> 19
  | Orch.Controller.Host_network_failure -> 65

let scenario kind =
  let dep = Deploy.build () in
  let eng = dep.Deploy.eng in
  let peer = Deploy.add_peer_as dep ~asn:65010 "peerAS" in
  let vip = Addr.of_string "203.0.113.10" in
  let peer_handle = Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900 in
  let svc =
    Deploy.deploy_service dep ~id:"t1" ~local_asn:64900
      [
        App.vrf_spec ~vrf:"v0" ~vip ~peer_addr:peer.Deploy.pa_addr
          ~peer_asn:65010 ();
      ]
  in
  if not (Deploy.wait_established dep svc ()) then
    (* lint: allow p2 — harness precondition: abort the experiment loudly before any measurement; not a product path *)
    failwith "table1: session did not establish";
  (* Average workload: a few hundred routes each way. *)
  Bgp.Speaker.originate peer.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 300);
  (match App.speaker (Deploy.service_app svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 100)
  | None -> ());
  Engine.run_for eng (Time.sec 10);
  let peer_rib = Bgp.Speaker.rib peer.Deploy.pa_speaker ~vrf:"v0" in
  let routes_before = Bgp.Rib.size peer_rib in
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down peer_handle (fun _ -> incr drops);
  let t0 = Engine.now eng in
  let (), orch =
    Telemetry.Control.capture ~category:Telemetry.Event.Orch (fun () ->
        Deploy.inject_failure dep svc kind;
        Engine.run_for eng (Time.sec 40))
  in
  (* Each phase ends at the first milestone event of its kind. *)
  let at milestone =
    match
      List.find_opt (fun (e : Telemetry.Bus.entry) -> milestone e.event) orch
    with
    | Some e -> Time.to_sec_f (Time.diff e.at t0)
    | None -> nan
  in
  let detect =
    at (function Telemetry.Event.Failure_detected _ -> true | _ -> false)
  in
  let initiate =
    at (function Telemetry.Event.Migration_initiated _ -> true | _ -> false)
  in
  let migrate_done =
    at (function Telemetry.Event.Migration_done _ -> true | _ -> false)
  in
  let tcp_synced =
    at (function Telemetry.Event.Tcp_synced _ -> true | _ -> false)
  in
  let baseline = Baseline.recovery_for kind in
  {
    kind;
    frequency_pct = frequency_of kind;
    detect_s = detect;
    initiate_s = initiate -. detect;
    migrate_s = migrate_done -. initiate;
    tcp_s = Float.max 0.0 (tcp_synced -. migrate_done);
    total_s = tcp_synced;
    peer_session_drops = !drops;
    peer_routes_lost = routes_before - Bgp.Rib.size peer_rib;
    baseline_total_s = Time.to_sec_f (Baseline.total baseline);
  }

let all_kinds =
  [
    Orch.Controller.App_failure;
    Orch.Controller.Container_failure;
    Orch.Controller.Host_failure;
    Orch.Controller.Host_network_failure;
  ]

let run ?(kinds = all_kinds) () = List.map scenario kinds

let paper_row = function
  | Orch.Controller.App_failure -> ("0.01", "0.10", "1.09", "1.06", "2.26", "~30")
  | Orch.Controller.Container_failure -> ("0.31", "0.10", "1.19", "1.01", "2.61", "N/A")
  | Orch.Controller.Host_failure -> ("3.30", "0.20", "4.50", "1.05", "9.05", "~240")
  | Orch.Controller.Host_network_failure -> ("3.30", "0.21", "4.45", "1.21", "9.17", "~25")

let print rows =
  Report.section
    "Table 1: failure recovery — TENSOR (measured) vs open-source baselines";
  Report.table
    ~header:
      [
        "failure (freq)"; "detect"; "init"; "migrate"; "TCP"; "total";
        "downtime"; "baseline";
      ]
    (List.map
       (fun r ->
         let k fmt = Printf.sprintf "%.2f" fmt in
         [
           Format.asprintf "%a (%d%%)" Orch.Controller.pp_failure_kind r.kind
             r.frequency_pct;
           k r.detect_s;
           k r.initiate_s;
           k r.migrate_s;
           k r.tcp_s;
           k r.total_s;
           (if r.peer_session_drops = 0 && r.peer_routes_lost = 0 then "ZERO"
            else
              Printf.sprintf "BROKEN(%d drops,%d lost)" r.peer_session_drops
                r.peer_routes_lost);
           Printf.sprintf "~%.0f s" r.baseline_total_s;
         ])
       rows);
  Report.subsection "paper reference (seconds)";
  Report.table
    ~header:[ "failure"; "detect"; "init"; "migrate"; "TCP"; "total"; "baseline" ]
    (List.map
       (fun r ->
         let d, i, m, t, tot, b = paper_row r.kind in
         [
           Format.asprintf "%a" Orch.Controller.pp_failure_kind r.kind;
           d; i; m; t; tot; b;
         ])
       rows);
  Report.note
    "TENSOR columns are internal phases with zero link downtime (asserted);";
  Report.note
    "the baseline column is the peers-visible downtime of FRR/GoBGP/BIRD."
