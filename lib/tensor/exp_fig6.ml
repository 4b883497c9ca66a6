open Sim
open Netsim

type impl_point = { impl : string; seconds : float }
type sweep_row = { x : int; values : impl_point list }
type scale_row = { containers : int; memory_gb : float; cpu_pct : float }

let impls =
  [
    ("FRRouting", `Baseline Baseline.frr);
    ("GoBGP", `Baseline Baseline.gobgp);
    ("BIRD", `Baseline Baseline.bird);
    ("TENSOR", `Tensor);
  ]

let groups_for n = max 1 (n / 500)

(* Poll slice of the completion waits. It decides where a run's engine
   stops, so changing it moves Fig. 6 outputs. The multi-peer bring-up
   polls at 200 ms. *)
let slice = Time.ms 50

(* Originate [n] routes spread over [groups] attribute sets, one
   originate call per group (so packing has material to work with). *)
let originate_grouped spk ~vrf ~next_hop ~groups n =
  let rng = Rng.create 7 in
  let routes = Workload.Prefixes.attr_groups rng ~groups ~next_hop n in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (pfx, attrs) ->
      let key = Bgp.Attrs.hash attrs in
      let cur = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((pfx, attrs) :: cur))
    routes;
  Det.iter_sorted ~compare:Int.compare
    (fun _ l ->
      match l with
      | (_, attrs) :: _ -> Bgp.Speaker.originate spk ~vrf ~attrs (List.map fst l)
      | [] -> ())
    tbl

(* --- Panels (a) and (b): one peer, N updates ----------------------------- *)

(* Panel (a) times the DUT receiving and learning N updates; panel (b)
   times it generating and sending them. The DUT is the measured speaker
   either way: [Receive] waits for it to learn N routes (the last applied
   receive), [Send] for it to hand N updates to TCP. *)
type direction = Receive | Send

let time_to_n eng ~slice ~t0 direction spk n =
  let count, stamp =
    match direction with
    | Receive -> (Bgp.Speaker.updates_learned, Bgp.Speaker.last_rx_applied)
    | Send -> (Bgp.Speaker.updates_sent, Bgp.Speaker.last_tx_handoff)
  in
  let deadline = Time.add t0 (Time.minutes 10) in
  if Engine.run_until_cond eng ~slice ~deadline (fun () -> count spk >= n)
  then Time.to_sec_f (Time.diff (stamp spk) t0)
  else nan

(* One peering AS of the many-peer rigs: a border router of AS [asn] on
   leaf [name], passive towards the DUT (AS 64900) at [dut_addr], and the
   DUT's active session to it in [vrf]. *)
let dut_peering net ~fabric ~dut ~dut_addr ~vrf ~asn name =
  let pa = Deploy.speaker_leaf net ~fabric ~asn name in
  ignore
    (Bgp.Speaker.add_peer pa.Deploy.pa_speaker
       (Bgp.Speaker.default_peer_config ~remote_asn:64900 ~passive:true
          ~vrf:"v0" ~remote_addr:dut_addr ()));
  let session =
    Bgp.Speaker.add_peer dut
      (Bgp.Speaker.default_peer_config ~remote_asn:asn ~vrf
         ~remote_addr:pa.Deploy.pa_addr ())
  in
  (pa, session)

(* A plain speaker pair, the DUT with [profile] against an FRR-profile
   peer. The announcer (the peer for [Receive], the DUT for [Send]) is
   built first and opens the session; the other side is passive. *)
let baseline_pair ~profile direction n =
  let eng = Engine.create () in
  let net = Network.create eng in
  let dut = ("dut", profile, 64900) and peer = ("peer", Baseline.frr, 65010) in
  let (a_name, a_profile, a_asn), (b_name, b_profile, b_asn) =
    match direction with Receive -> (peer, dut) | Send -> (dut, peer)
  in
  let a = Network.add_node net a_name in
  let b = Network.add_node net b_name in
  let _, a_addr, b_addr = Network.connect net ~delay:(Time.us 200) a b in
  let s_a = Tcp.create_stack a and s_b = Tcp.create_stack b in
  let spk_a =
    Bgp.Speaker.create ~profile:a_profile ~stack:s_a ~local_asn:a_asn
      ~router_id:a_addr ()
  in
  let spk_b =
    Bgp.Speaker.create ~profile:b_profile ~stack:s_b ~local_asn:b_asn
      ~router_id:b_addr ()
  in
  ignore
    (Bgp.Speaker.add_peer spk_a
       (Bgp.Speaker.default_peer_config ~remote_asn:b_asn ~vrf:"v0"
          ~remote_addr:b_addr ()));
  ignore
    (Bgp.Speaker.add_peer spk_b
       (Bgp.Speaker.default_peer_config ~remote_asn:a_asn ~passive:true
          ~vrf:"v0" ~remote_addr:a_addr ()));
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 3);
  let t0 = Engine.now eng in
  originate_grouped spk_a ~vrf:"v0" ~next_hop:a_addr ~groups:(groups_for n) n;
  time_to_n eng ~slice ~t0 direction
    (match direction with Receive -> spk_b | Send -> spk_a)
    n

(* The Figure 3 deployment with live replication: the peer AS announces
   for [Receive], the service (next hop: its VIP) for [Send]. *)
let tensor_deployment direction n =
  let dep = Deploy.build () in
  let { Deploy.peer; spec; _ } = Deploy.standard_peering dep in
  let vip = spec.App.vip in
  let svc =
    Deploy.deploy_service dep
      ~id:(match direction with Receive -> "fig6a" | Send -> "fig6b")
      ~local_asn:Deploy.local_asn
      [ { spec with App.run_bfd = false } ]
  in
  if not (Deploy.wait_established dep svc ()) then nan
  else begin
    let eng = dep.Deploy.eng in
    Engine.run_for eng (Time.sec 2);
    let spk_dut =
      match App.speaker (Deploy.service_app svc) with
      | Some s -> s
      (* lint: allow p2 — harness precondition: the deployed service must expose a speaker; abort loudly, not a product path *)
      | None -> failwith "no speaker"
    in
    let t0 = Engine.now eng in
    let announcer, next_hop =
      match direction with
      | Receive -> (peer.Deploy.pa_speaker, peer.Deploy.pa_addr)
      | Send -> (spk_dut, vip)
    in
    originate_grouped announcer ~vrf:"v0" ~next_hop ~groups:(groups_for n) n;
    time_to_n eng ~slice ~t0 direction spk_dut n
  end

let run_one_peer direction counts =
  List.map
    (fun n ->
      {
        x = n;
        values =
          List.map
            (fun (name, kind) ->
              let seconds =
                match kind with
                | `Baseline profile -> baseline_pair ~profile direction n
                | `Tensor -> tensor_deployment direction n
              in
              { impl = name; seconds })
            impls;
      })
    counts

let default_counts = [ 100; 1_000; 10_000; 100_000; 500_000 ]

let run_receive ?(counts = default_counts) () = run_one_peer Receive counts
let run_send ?(counts = default_counts) () = run_one_peer Send counts

(* --- Panel (c): sending to many peers --------------------------------------- *)

let multi_peer_run ~profile ~with_replication peers updates =
  let eng = Engine.create () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let dut, dut_addr =
    Network.add_leaf net ~delay:(Time.us 50) ~uplink:fabric "dut"
  in
  let s_dut = Tcp.create_stack dut in
  (* Optional live replication (TENSOR): a store node plus one replicator
     per peer, created at the peer's first message. *)
  let hooks =
    if not with_replication then Bgp.Speaker.no_hooks
    else begin
      let store_node, _ =
        Network.add_leaf net ~delay:(Time.us 100) ~uplink:fabric "store"
      in
      let server = Store.Server.create store_node in
      let client =
        Store.Client.create dut ~server:(Store.Server.addr server)
      in
      let replicators = Hashtbl.create 64 in
      let of_peer peer =
        let key = Bgp.Speaker.peer_source_key peer in
        match Hashtbl.find_opt replicators key with
        | Some r -> r
        | None ->
            let r =
              Some
                (Replicator.create ~ack_hold:false ~engine:eng ~client
                   ~conn_id:(Keys.conn_id ~service:"fig6c" ~vrf:key)
                   ~service:"fig6c" ())
            in
            Hashtbl.replace replicators key r;
            r
      in
      Replicator.speaker_hooks ~of_peer ()
    end
  in
  let spk_dut =
    Bgp.Speaker.create ~profile ~hooks ~stack:s_dut ~local_asn:64900
      ~router_id:dut_addr ()
  in
  for i = 0 to peers - 1 do
    ignore
      (dut_peering net ~fabric ~dut:spk_dut ~dut_addr ~vrf:"v0"
         ~asn:(65000 + i) (Printf.sprintf "peer%d" i))
  done;
  Bgp.Speaker.start spk_dut;
  (* Let all sessions establish. *)
  let deadline = Time.add (Engine.now eng) (Time.sec 60) in
  if
    not
      (Engine.run_until_cond eng ~slice:(Time.ms 200) ~deadline (fun () ->
           Bgp.Speaker.all_established spk_dut))
  then nan
  else begin
    Engine.run_for eng (Time.sec 1);
    let target = peers * updates in
    let t0 = Engine.now eng in
    originate_grouped spk_dut ~vrf:"v0" ~next_hop:dut_addr ~groups:4 updates;
    time_to_n eng ~slice ~t0 Send spk_dut target
  end

(* Panel (c) announces 100 routes per peer. *)
let updates_per_peer = 100

let run_multi_peer ?(peer_counts = [ 50; 100; 200; 300; 400; 500; 600; 700 ])
    () =
  List.map
    (fun peers ->
      {
        x = peers;
        values =
          List.map
            (fun (name, kind) ->
              let seconds =
                match kind with
                | `Baseline profile ->
                    multi_peer_run ~profile ~with_replication:false peers
                      updates_per_peer
                | `Tensor ->
                    multi_peer_run ~profile:Baseline.tensor
                      ~with_replication:true peers updates_per_peer
              in
              { impl = name; seconds })
            impls;
      })
    peer_counts

(* --- Panel (d): containers per host ------------------------------------------- *)

let run_scale ?(container_counts = [ 10; 25; 50; 75; 100 ]) () =
  List.map
    (fun containers ->
      let eng = Engine.create () in
      let net = Network.create eng in
      let fabric = Network.add_node net ~forwarding:true "fabric" in
      let host = Orch.Host.create net ~fabric "host0" in
      let dummy_store = Addr.of_string "10.255.255.1" in
      let dummy_peer = Addr.of_string "10.255.255.2" in
      for i = 0 to containers - 1 do
        let cont = Orch.Host.create_container host (Printf.sprintf "c%d" i) in
        let cfg =
          App.config ~service_id:(Printf.sprintf "c%d" i)
            ~store_addr:dummy_store ~local_asn:64900
            [
              App.vrf_spec ~vrf:"v0"
                ~vip:(Addr.of_octets 203 0 (i / 250) (i mod 250))
                ~peer_addr:dummy_peer ~run_bfd:false ();
            ]
        in
        ignore (App.install cont cfg);
        Orch.Container.boot cont
      done;
      Engine.run_for eng (Time.sec 3);
      {
        containers;
        memory_gb = Orch.Host.memory_used_mb host /. 1024.0;
        cpu_pct = Orch.Host.cpu_used_pct host;
      })
    container_counts

(* --- Printing -------------------------------------------------------------------- *)

let print_sweep ~title ~xlabel ~paper_notes rows =
  Report.section title;
  let impl_names = List.map fst impls in
  Report.table
    ~header:(xlabel :: impl_names)
    (List.map
       (fun r ->
         string_of_int r.x
         :: List.map
              (fun name ->
                match List.find_opt (fun v -> v.impl = name) r.values with
                | Some v -> Report.fseconds v.seconds
                | None -> "-")
              impl_names)
       rows);
  List.iter (fun n -> Report.note "%s" n) paper_notes

let print_receive rows =
  print_sweep
    ~title:"Figure 6(a): time to receive and learn N routing updates"
    ~xlabel:"updates"
    ~paper_notes:
      [
        "paper: ~40 ms at 100 updates for all; <100 ms below ~10K; linear beyond;";
        "ordering FRR < GoBGP ~ BIRD < TENSOR; TENSOR overhead < 1 s for tens of";
        "thousands of updates.";
      ]
    rows

let print_send rows =
  print_sweep
    ~title:"Figure 6(b): time to generate and send N routing updates"
    ~xlabel:"updates"
    ~paper_notes:
      [
        "paper: flat below ~5K then linear; TENSOR ~ the other implementations";
        "(less delay on the send path than the receive path).";
      ]
    rows

let print_multi_peer rows =
  print_sweep
    ~title:
      "Figure 6(c): time to send 100 updates each to N peering ASes"
    ~xlabel:"peers"
    ~paper_notes:
      [
        "paper: GoBGP >= 5x the others (no update packing); TENSOR ~ FRR ~ BIRD,";
        "with TENSOR overtaking BIRD beyond ~600 peers.";
      ]
    rows

let print_scale rows =
  Report.section "Figure 6(d): memory and CPU vs containers on one host";
  Report.table
    ~header:[ "containers"; "memory (GB)"; "CPU (%)" ]
    (List.map
       (fun r ->
         [
           string_of_int r.containers;
           Printf.sprintf "%.1f" r.memory_gb;
           Printf.sprintf "%.2f" r.cpu_pct;
         ])
       rows);
  Report.note "paper: linear growth; 100 containers ~ 25 GB and 5.6%% CPU."
