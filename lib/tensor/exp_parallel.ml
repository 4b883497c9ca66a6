open Sim
open Netsim

type result = {
  ases : int;
  monolithic_s : float;
  containerized_s : float;
}

(* Poll slice of the bring-up and learning waits; part of the output,
   as in Exp_fig6. *)
let slice = Time.ms 100

(* Each AS sends 10K updates (§4.2). *)
let updates_per_as = 10_000

(* Peering AS [i] announces its [updates_per_as] routes. *)
let announce i (pa : Deploy.peer_as) =
  let base = i * 100_000 in
  let attrs =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 64000 + (base mod 999) ] ]
      ~next_hop:pa.pa_addr ()
  in
  Bgp.Speaker.originate pa.pa_speaker ~vrf:"v0" ~attrs
    (Workload.Prefixes.distinct_from ~base updates_per_as)

(* One process, [ases] sessions: every update contends for one main
   thread. *)
let monolithic ~ases =
  let eng = Engine.create () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let dut =
    Deploy.speaker_leaf net ~fabric ~link_delay:(Time.us 50) ~asn:64900 "dut"
  in
  let spk_dut = dut.Deploy.pa_speaker in
  let peers =
    List.init ases (fun i ->
        fst
          (Exp_fig6.dut_peering net ~fabric ~dut:spk_dut
             ~dut_addr:dut.Deploy.pa_addr ~vrf:(Printf.sprintf "v%d" i)
             ~asn:(65000 + i) (Printf.sprintf "as%d" i)))
  in
  Bgp.Speaker.start spk_dut;
  let deadline = Time.add (Engine.now eng) (Time.minutes 2) in
  if
    not
      (Engine.run_until_cond eng ~slice ~deadline (fun () ->
           Bgp.Speaker.all_established spk_dut))
  then nan
  else begin
    Engine.run_for eng (Time.sec 1);
    let t0 = Engine.now eng in
    List.iteri announce peers;
    Exp_fig6.time_to_n eng ~slice ~t0 Exp_fig6.Receive spk_dut
      (ases * updates_per_as)
  end

(* One speaker per AS — TENSOR's split — each with live replication into
   a shared store, all learning concurrently. *)
let containerized ~ases =
  let eng = Engine.create () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let store_node, _ =
    Network.add_leaf net ~delay:(Time.us 100) ~uplink:fabric "store"
  in
  let server = Store.Server.create store_node in
  let store_addr = Store.Server.addr server in
  let duts =
    List.init ases (fun i ->
        let node, addr =
          Network.add_leaf net ~delay:(Time.us 50) ~uplink:fabric
            (Printf.sprintf "cont%d" i)
        in
        let stack = Tcp.create_stack node in
        let chain = Netfilter.create () in
        Tcp.set_output_chain stack (Some chain);
        let client = Store.Client.create node ~server:store_addr in
        let service = Printf.sprintf "par%d" i in
        let repl =
          Replicator.create ~engine:eng ~client
            ~conn_id:(Keys.conn_id ~service ~vrf:"v0")
            ~service ()
        in
        let hooked = Some repl in
        let hooks =
          Replicator.speaker_hooks
            ~of_peer:(fun _ -> hooked)
            ~of_vrf:(fun _ -> hooked)
            ()
        in
        let spk =
          Bgp.Speaker.create ~profile:Baseline.tensor ~hooks ~stack
            ~local_asn:64900 ~router_id:addr ()
        in
        (spk, addr, repl, chain))
  in
  let peers =
    List.mapi
      (fun i (spk_dut, dut_addr, repl, chain) ->
        let pa, p =
          Exp_fig6.dut_peering net ~fabric ~dut:spk_dut ~dut_addr ~vrf:"v0"
            ~asn:(65000 + i) (Printf.sprintf "as%d" i)
        in
        Replicator.attach_output_chain repl chain ~local:dut_addr
          ~remote:pa.Deploy.pa_addr;
        Bgp.Speaker.on_peer_up p (fun () ->
            match Bgp.Speaker.peer_conn p with
            | Some c -> Replicator.session_established repl ~irs:(Tcp.irs c)
            | None -> ());
        Bgp.Speaker.start spk_dut;
        pa)
      duts
  in
  let deadline = Time.add (Engine.now eng) (Time.minutes 2) in
  let all_up () =
    List.for_all
      (fun (spk_dut, _, _, _) -> Bgp.Speaker.all_established spk_dut)
      duts
  in
  if not (Engine.run_until_cond eng ~slice ~deadline all_up) then nan
  else begin
    Engine.run_for eng (Time.sec 1);
    let t0 = Engine.now eng in
    List.iteri announce peers;
    let deadline = Time.add t0 (Time.minutes 10) in
    let all_learned () =
      List.for_all
        (fun (spk_dut, _, _, _) ->
          Bgp.Speaker.updates_learned spk_dut >= updates_per_as)
        duts
    in
    if Engine.run_until_cond eng ~slice ~deadline all_learned then
      List.fold_left
        (fun acc (spk_dut, _, _, _) ->
          Float.max acc
            (Time.to_sec_f (Time.diff (Bgp.Speaker.last_rx_applied spk_dut) t0)))
        0.0 duts
    else nan
  end

let run ?(ases = 50) () =
  {
    ases;
    monolithic_s = monolithic ~ases;
    containerized_s = containerized ~ases;
  }

let print r =
  Report.section
    "Multi-AS learning (§4.2): monolithic process vs per-container split";
  Report.kv "workload" "%d ASes x %d updates = %d total" r.ases
    updates_per_as (r.ases * updates_per_as);
  Report.kv "monolithic (one process, one main thread)" "%s"
    (Report.fseconds r.monolithic_s);
  Report.kv "containerized (one TENSOR process per AS)" "%s"
    (Report.fseconds r.containerized_s);
  Report.kv "parallelism speedup" "%.1fx"
    (r.monolithic_s /. r.containerized_s);
  Report.note
    "paper: >= 5 s for any open-source implementation at 50 ASes x 10K, versus";
  Report.note
    "sub-second per TENSOR container (parallel, one-to-few ASes per process)."
