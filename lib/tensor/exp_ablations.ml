open Sim
open Netsim

(* --- 1. Cold vs preheated backups ------------------------------------------ *)

type preheat_result = { cold_total_s : float; preheat_total_s : float }

let one_migration ~backup_mode =
  let dep, _, svc = Exp_table1.episode ~backup_mode ~id:"ablate" () in
  let eng = dep.Deploy.eng in
  let (), entries =
    Telemetry.Control.capture (fun () ->
        Deploy.inject_failure dep svc Orch.Controller.Container_failure;
        Engine.run_for eng (Time.sec 30))
  in
  Telemetry.Phase.seconds ~name:"failover" (Telemetry.Phase.of_entries entries)

let run_preheat () =
  {
    cold_total_s = one_migration ~backup_mode:`Cold;
    preheat_total_s = one_migration ~backup_mode:`Preheat;
  }

let print_preheat r =
  Report.section "Ablation: cold vs preheated backup containers (§3.3.2)";
  Report.kv "container failure, cold backup" "%s total"
    (Report.fseconds r.cold_total_s);
  Report.kv "container failure, preheated standby" "%s total"
    (Report.fseconds r.preheat_total_s);
  Report.kv "boot time saved" "%s"
    (Report.fseconds (r.cold_total_s -. r.preheat_total_s));
  Report.note
    "preheat skips the backup container boot at the cost of idle standby";
  Report.note "resources (the paper's energy/latency trade-off)."

(* --- 2./3. Replication modes -------------------------------------------------- *)

type sync_result = {
  mode : string;
  store_rtt_ms : float;
  learn_s : float;
  mean_ack_hold_ms : float;
  violations : int;
  nsr_held : bool;
}

let flood_updates = 100_000

let one_mode ~mode ~store_delay ~ack_hold =
  (* The ACK-hold mean is the registry histogram's growth over this
     deployment's lifetime: only its replicator observes into it before
     the read point. *)
  let hold = Telemetry.Registry.histogram "replicator.ack_hold_s" in
  let hold_n0 = Telemetry.Registry.hist_count hold in
  let hold_sum0 = Telemetry.Registry.hist_sum hold in
  let dep = Deploy.build ~store_delay () in
  let eng = dep.Deploy.eng in
  let { Deploy.peer; spec; _ } = Deploy.standard_peering dep in
  let vip = spec.App.vip in
  let svc =
    Deploy.deploy_service dep ~ack_hold ~id:"mode" ~local_asn:Deploy.local_asn
      [ spec ]
  in
  let peer_drops = ref 0 in
  (* Wire monitor for the NSR safety invariant. *)
  let violations = ref 0 in
  let ack_key = Keys.ack_key (Keys.conn_id ~service:"mode" ~vrf:"v0") in
  (match
     Network.link_between dep.Deploy.net dep.Deploy.fabric peer.Deploy.pa_node
   with
  | Some link ->
      Link.tap link (fun _ pkt ->
          match pkt.Packet.payload with
          | Tcp.Segment.Tcp seg
            when Addr.equal pkt.Packet.src vip
                 && seg.Tcp.Segment.flags.Tcp.Segment.ack ->
              let durable =
                match Store.Server.peek dep.Deploy.store_server ack_key with
                | Some v -> (
                    match int_of_string_opt v with Some a -> a | None -> 0)
                | None -> max_int
              in
              if seg.Tcp.Segment.ack > durable then incr violations
          | _ -> ())
  | None -> ());
  if not (Deploy.wait_established dep svc ()) then
    {
      mode;
      store_rtt_ms = 2.0 *. Time.to_ms_f store_delay;
      learn_s = nan;
      mean_ack_hold_ms = nan;
      violations = 0;
      nsr_held = false;
    }
  else begin
    List.iter
      (fun p -> Bgp.Speaker.on_peer_down p (fun _ -> incr peer_drops))
      (Bgp.Speaker.peers peer.Deploy.pa_speaker);
    Engine.run_for eng (Time.sec 2);
    (* Flood. *)
    let spk = Option.get (App.speaker (Deploy.service_app svc)) in
    let t0 = Engine.now eng in
    Exp_fig6.originate_grouped peer.Deploy.pa_speaker ~vrf:"v0"
      ~next_hop:peer.Deploy.pa_addr ~groups:(flood_updates / 500)
      flood_updates;
    let learn_s =
      Exp_fig6.time_to_n eng ~slice:(Time.ms 100) ~t0 Exp_fig6.Receive spk
        flood_updates
    in
    let mean_ack_hold_ms =
      match App.replicator (Deploy.service_app svc) ~vrf:"v0" with
      | Some _ ->
          let n = Telemetry.Registry.hist_count hold - hold_n0 in
          if n = 0 then 0.0
          else
            (Telemetry.Registry.hist_sum hold -. hold_sum0)
            /. float_of_int n *. 1e3
      | None -> nan
    in
    (* A second flood with a crash in the middle of the stream. With
       synchronous replication the held ACKs guarantee the peer still has
       everything the backup lacks; the resumed connection
       re-synchronizes and the peer never notices (NSR). Without the
       hold, ACKs run ahead of the replication pipeline: the peer has
       discarded data whose store writes never left the dying node, the
       resumed stream has a permanent gap, the connection stalls, and
       the peer session eventually dies - the NSR guarantee is broken. *)
    Engine.run_for eng (Time.sec 5);
    let durable () =
      match Store.Server.peek dep.Deploy.store_server ack_key with
      | Some v -> ( match int_of_string_opt v with Some a -> a | None -> 0)
      | None -> 0
    in
    let peer_acked () =
      List.fold_left
        (fun acc p ->
          match Bgp.Speaker.peer_conn p with
          | Some c -> max acc (Tcp.snd_una c)
          | None -> acc)
        0
        (Bgp.Speaker.peers peer.Deploy.pa_speaker)
    in
    let durable0 = durable () in
    Bgp.Speaker.originate peer.Deploy.pa_speaker ~vrf:"v0"
      (Workload.Prefixes.distinct_from ~base:900_000 50_000);
    (* Fire the crash exactly when the mode's vulnerability (or lack of
       it) is observable: for asynchronous replication, when the peer has
       acknowledged data whose replication is not yet durable (the
       consistency window of 3.1.1); for synchronous replication that
       state never exists, so crash mid-flood once replication is clearly
       in progress. *)
    let deadline = Time.add (Engine.now eng) (Time.sec 10) in
    let rec wait_window () =
      let gap = peer_acked () - durable () in
      if gap > 20_000 || durable () - durable0 > 150_000 then ()
      else if Engine.now eng < deadline then begin
        Engine.run_for eng (Time.ms 2);
        wait_window ()
      end
    in
    wait_window ();
    Deploy.inject_failure dep svc Orch.Controller.Container_failure;
    (* The broken (asynchronous) case surfaces when the peer next sends
       data: its first keepalive after the resume lands beyond the
       backup's receive point, can never be acknowledged, and the
       connection dies after its retries exhaust (~30 s keepalive +
       ~50 s of backoff). Run long enough to observe it. *)
    Engine.run_for eng (Time.sec 150);
    {
      mode;
      store_rtt_ms = 2.0 *. Time.to_ms_f store_delay;
      learn_s;
      mean_ack_hold_ms;
      violations = !violations;
      nsr_held = !peer_drops = 0;
    }
  end

let run_replication_modes () =
  [
    one_mode ~mode:"local, synchronous" ~store_delay:(Time.us 100)
      ~ack_hold:true;
    one_mode ~mode:"remote (30ms RTT), synchronous"
      ~store_delay:(Time.ms 15) ~ack_hold:true;
    one_mode ~mode:"remote (30ms RTT), asynchronous"
      ~store_delay:(Time.ms 15) ~ack_hold:false;
  ]

let print_replication_modes rows =
  Report.section
    "Ablation: replication placement and synchrony (§3.1.1, §5)";
  Report.table
    ~header:
      [ "mode"; "store RTT"; "learn 100K"; "mean ACK hold"; "violations";
        "NSR held" ]
    (List.map
       (fun r ->
         [
           r.mode;
           Printf.sprintf "%.1f ms" r.store_rtt_ms;
           Report.fseconds r.learn_s;
           Printf.sprintf "%.2f ms" r.mean_ack_hold_ms;
           string_of_int r.violations;
           (if r.nsr_held then "YES" else "NO (session died)");
         ])
       rows);
  Report.note
    "synchronous local replication: zero violations, small ACK delay (within";
  Report.note
    "Fig. 5(a)'s harmless region). Remote synchronous replication inflates the";
  Report.note
    "ACK delay past the threshold (the paper's reason to leave disaster";
  Report.note
    "recovery asynchronous); asynchronous replication reopens the";
  Report.note
    "acknowledged-but-unreplicated window: after a crash the resumed stream";
  Report.note "has a gap the peer cannot fill, and the session dies."


(* --- 4. Interception technology (Netfilter vs eBPF, §5) -------------------- *)

type hook_result = { hook : string; cost_ns : int; throughput_bps : float }

let hook_throughput ~cost_ns ~with_chain =
  (* Both endpoints intercept egress (data on one side, ACKs on the
     other), as a TENSOR gateway and its tcp_queue do. *)
  let egress _ ~tx ~rx =
    if with_chain then begin
      Tcp.set_output_chain tx (Some (Netfilter.create ()));
      Tcp.set_output_chain rx (Some (Netfilter.create ()))
    end
  in
  Exp_fig5a.iperf
    ~stack:
      (Tcp.create_stack ~proc_cost:(Time.of_us_f 2.5)
         ~hook_cost:(Time.ns cost_ns))
    ~egress ~mss:100 ~measure_span:(Time.ms 400)

let run_hook_overhead () =
  [
    {
      hook = "no interception";
      cost_ns = 0;
      throughput_bps = hook_throughput ~cost_ns:0 ~with_chain:false;
    };
    {
      hook = "eBPF hook";
      cost_ns = 150;
      throughput_bps = hook_throughput ~cost_ns:150 ~with_chain:true;
    };
    {
      hook = "Netfilter NFQUEUE";
      cost_ns = 500;
      throughput_bps = hook_throughput ~cost_ns:500 ~with_chain:true;
    };
  ]

let print_hook_overhead rows =
  Report.section
    "Ablation: interception technology (Netfilter vs eBPF, §5)";
  Report.table
    ~header:[ "egress hook"; "per-segment cost"; "100B-packet throughput" ]
    (List.map
       (fun r ->
         [
           r.hook;
           Printf.sprintf "%d ns" r.cost_ns;
           Report.fbps r.throughput_bps;
         ])
       rows);
  Report.note
    "the paper keeps Netfilter (mature at development time) and cites eBPF as";
  Report.note
    "the faster future alternative; the modelled per-segment costs quantify the";
  Report.note "packet-rate headroom the switch would recover."
