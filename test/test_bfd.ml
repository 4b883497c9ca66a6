(* Tests for BFD: bring-up, detection timing (100 ms x 3), VRF mapping,
   and the agent relay that masks failures from the remote peer. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pair () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let link, addr_a, addr_b = Network.connect net ~delay:(Time.us 200) a b in
  (eng, net, a, b, link, addr_a, addr_b)

let test_bringup () =
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  let sb =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  checkb "a up" true (Bfd.session_state sa = Bfd.Up);
  checkb "b up" true (Bfd.session_state sb = Bfd.Up);
  checkb "discriminators learned" true
    (Bfd.your_disc sa = Bfd.my_disc sb && Bfd.your_disc sb = Bfd.my_disc sa)

let test_detection_timing () =
  (* 100 ms x 3: failure detected within ~300-400 ms. *)
  let eng, _, a, b, link, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  ignore
    (Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
       ~remote:addr_a ());
  Engine.run_for eng (Time.sec 1);
  let down_at = ref None in
  Bfd.on_state_change sa (fun ~old:_ st ->
      if st = Bfd.Down && !down_at = None then down_at := Some (Engine.now eng));
  let fail_at = Engine.now eng in
  Link.set_up link false;
  Engine.run_for eng (Time.sec 2);
  match !down_at with
  | Some t ->
      let detect = Time.diff t fail_at in
      checkb
        (Printf.sprintf "detected in %.0f ms" (Time.to_ms_f detect))
        true
        (detect >= Time.ms 200 && detect <= Time.ms 500)
  | None -> Alcotest.fail "failure not detected"

let test_recovers_after_flap () =
  let eng, _, a, b, link, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  let sb =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  Link.fail_for link (Time.sec 1);
  Engine.run_for eng (Time.ms 600);
  checkb "down during outage" true (Bfd.session_state sa = Bfd.Down);
  Engine.run_for eng (Time.sec 3);
  checkb "a re-up" true (Bfd.session_state sa = Bfd.Up);
  checkb "b re-up" true (Bfd.session_state sb = Bfd.Up)

let test_vrf_isolation () =
  (* Two VRFs between the same nodes are independent sessions. *)
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let a1 =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v1"
      ~remote:addr_b ()
  in
  let a2 =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v2"
      ~remote:addr_b ()
  in
  ignore
    (Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v1"
       ~remote:addr_a ());
  let b2 =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v2"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  checkb "both up" true
    (Bfd.session_state a1 = Bfd.Up && Bfd.session_state a2 = Bfd.Up);
  (* Tear down only v2 at b: a's v2 goes down, v1 stays up. *)
  Bfd.stop_session b2;
  Engine.run_for eng (Time.sec 1);
  checkb "v2 down" true (Bfd.session_state a2 = Bfd.Down);
  checkb "v1 unaffected" true (Bfd.session_state a1 = Bfd.Up)

let test_admin_stop_no_callbacks_after () =
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  let sb =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  Bfd.stop_session sa;
  checkb "admin down" true (Bfd.session_state sa = Bfd.Admin_down);
  (* Past the last packet in flight, b hears nothing more from a. *)
  Engine.run_for eng (Time.ms 10);
  let last_heard = Bfd.last_rx sb in
  Engine.run_for eng (Time.sec 2);
  checkb "no more transmissions" true (Bfd.last_rx sb = last_heard)

let test_relay_masks_failure () =
  (* Topology: peer -- router -- {container-host, agent}. When the
     container host dies, the agent's relay keeps the peer's BFD Up. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let peer = Network.add_node net "peer" in
  let router = Network.add_node net ~forwarding:true "router" in
  let host = Network.add_node net "host" in
  let agent = Network.add_node net "agent" in
  let _, peer_addr, r_from_peer = Network.connect net peer router in
  let _, _, host_addr = Network.connect net router host in
  let _, _, _agent_addr = Network.connect net router agent in
  let vip = Addr.of_string "203.0.113.50" in
  Node.add_address host vip;
  Node.add_route peer (Addr.prefix vip 32) r_from_peer;
  Node.add_route router (Addr.prefix vip 32) host_addr;
  Node.add_route host (Addr.prefix_of_string "0.0.0.0/0")
    (List.nth (Node.ifaces host) 0).Node.remote;
  Node.add_route agent (Addr.prefix_of_string "0.0.0.0/0")
    (List.nth (Node.ifaces agent) 0).Node.remote;
  Node.add_route peer (Addr.prefix peer_addr 0) r_from_peer;
  (* Sessions: peer <-> container(VIP on host). *)
  let s_peer =
    Bfd.create_session (Bfd.endpoint peer) ~local:peer_addr ~vrf:"v0"
      ~remote:vip ()
  in
  let s_cont =
    Bfd.create_session (Bfd.endpoint host) ~local:vip ~vrf:"v0"
      ~remote:peer_addr ()
  in
  Engine.run_for eng (Time.sec 1);
  checkb "peer up" true (Bfd.session_state s_peer = Bfd.Up);
  (* Agent starts relaying with the container's discriminators, then the
     host dies. *)
  let relay =
    Bfd.Relay.start agent ~src:vip ~dst:peer_addr ~vrf:"v0"
      ~my_disc:(Bfd.my_disc s_cont) ~your_disc:(Bfd.your_disc s_cont) ()
  in
  Node.set_up host false;
  Engine.run_for eng (Time.sec 5);
  checkb "peer still up thanks to relay" true
    (Bfd.session_state s_peer = Bfd.Up);
  (* Without the relay the peer would detect within 300 ms. *)
  Bfd.Relay.stop relay;
  Engine.run_for eng (Time.sec 2);
  checkb "peer down once relay stops" true (Bfd.session_state s_peer = Bfd.Down)

let test_peer_detects_without_relay () =
  (* Control experiment for the relay test: no agent, host death is
     detected promptly. *)
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  ignore
    (Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
       ~remote:addr_a ());
  Engine.run_for eng (Time.sec 1);
  let down_at = ref None in
  Bfd.on_state_change sa (fun ~old:_ st ->
      if st = Bfd.Down && !down_at = None then down_at := Some (Engine.now eng));
  let t0 = Engine.now eng in
  Node.set_up b false;
  Engine.run_for eng (Time.sec 2);
  match !down_at with
  | Some t ->
      checkb "sub-500ms detection" true (Time.diff t t0 <= Time.ms 500)
  | None -> Alcotest.fail "not detected"

(* Detection fires exactly [mult x interval] after the last packet
   received: the deadline each packet pushes later is the one that
   expires. *)
let test_detect_at_last_rx () =
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  ignore
    (Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
       ~remote:addr_a ());
  Engine.run_for eng (Time.sec 1);
  let down_at = ref None in
  Bfd.on_state_change sa (fun ~old:_ st ->
      if st = Bfd.Down && !down_at = None then down_at := Some (Engine.now eng));
  Node.set_up b false;
  Engine.run_for eng (Time.sec 2);
  match (!down_at, Bfd.last_rx sa) with
  | Some t, Some last -> checki "last rx + 3 x 100 ms" (Time.add last (Time.ms 300)) t
  | _ -> Alcotest.fail "not detected"

(* A peer that shortens its interval moves the detection deadline
   earlier: silenced right after its first short-interval packet lands,
   it is detected [mult x new interval] later, well before the old
   deadline. *)
let test_shorter_interval_rearms_earlier () =
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  let sa =
    Bfd.create_session (Bfd.endpoint a) ~local:addr_a ~vrf:"v0"
      ~remote:addr_b ()
  in
  let sb =
    Bfd.create_session (Bfd.endpoint b) ~local:addr_b ~vrf:"v0"
      ~remote:addr_a ()
  in
  Engine.run_for eng (Time.sec 1);
  let down_at = ref None in
  Bfd.on_state_change sa (fun ~old:_ st ->
      if st = Bfd.Down && !down_at = None then down_at := Some (Engine.now eng));
  Bfd.set_tx_interval sb (Time.ms 20);
  (* Let anything sent at the old interval land first. *)
  Engine.run_for eng (Time.ms 1);
  let rx0 = Bfd.last_rx sa in
  while Bfd.last_rx sa = rx0 do
    Engine.run_for eng (Time.us 100)
  done;
  Node.set_up b false;
  match Bfd.last_rx sa with
  | None -> Alcotest.fail "nothing received"
  | Some last ->
      Engine.run_until eng (Time.add last (Time.ms 60));
      Alcotest.(check (option int))
        "down at last rx + 3 x 20 ms"
        (Some (Time.add last (Time.ms 60)))
        !down_at

(* Each received packet re-arms the detect deadline in place, so the
   heap stays the size of the live timer set. Cancel-and-reschedule
   kept one dead entry per packet received within the last detection
   window: about [detect_mult] per session. *)
let test_heap_stays_flat () =
  let eng, _, a, b, _, addr_a, addr_b = pair () in
  ignore
    (Bfd.create_session (Bfd.endpoint a) ~detect_mult:20 ~local:addr_a
       ~vrf:"v0" ~remote:addr_b ());
  ignore
    (Bfd.create_session (Bfd.endpoint b) ~detect_mult:20 ~local:addr_b
       ~vrf:"v0" ~remote:addr_a ());
  let worst = ref 0 in
  for _ = 1 to 100 do
    Engine.run_for eng (Time.ms 100);
    worst :=
      max !worst (Engine.queued_events eng - Engine.pending_events eng)
  done;
  checkb
    (Printf.sprintf "at most 2 stale heap entries (saw %d)" !worst)
    true (!worst <= 2)

let prop_detection_scales_with_interval =
  QCheck.Test.make ~name:"detection time ~ detect_mult * interval" ~count:10
    QCheck.(pair (int_range 20 200) (int_range 2 5))
    (fun (interval_ms, mult) ->
      let eng, _, a, b, link, addr_a, addr_b = pair () in
      let sa =
        Bfd.create_session (Bfd.endpoint a) ~detect_mult:mult ~local:addr_a
          ~vrf:"v0" ~remote:addr_b ()
      in
      let sb =
        Bfd.create_session (Bfd.endpoint b) ~detect_mult:mult ~local:addr_b
          ~vrf:"v0" ~remote:addr_a ()
      in
      Bfd.set_tx_interval sa (Time.ms interval_ms);
      Bfd.set_tx_interval sb (Time.ms interval_ms);
      Engine.run_for eng (Time.sec 3);
      if Bfd.session_state sa <> Bfd.Up then false
      else begin
        let down_at = ref None in
        Bfd.on_state_change sa (fun ~old:_ st ->
            if st = Bfd.Down && !down_at = None then
              down_at := Some (Engine.now eng));
        let t0 = Engine.now eng in
        Link.set_up link false;
        Engine.run_for eng (Time.sec 10);
        match !down_at with
        | Some t ->
            let d = Time.diff t t0 in
            (* The detection window is mult*interval since the LAST
               received packet, which (with 10% tx jitter) can precede the
               failure by up to ~1.1 intervals: accept (mult-2)..(mult+2)
               intervals after the failure instant. *)
            d >= max 0 ((mult - 2) * Time.ms interval_ms)
            && d <= (mult + 2) * Time.ms interval_ms
        | None -> false
      end)

let () =
  Alcotest.run "bfd"
    [
      ( "sessions",
        [
          Alcotest.test_case "bring-up" `Quick test_bringup;
          Alcotest.test_case "detection timing" `Quick test_detection_timing;
          Alcotest.test_case "recovers after flap" `Quick
            test_recovers_after_flap;
          Alcotest.test_case "vrf isolation" `Quick test_vrf_isolation;
          Alcotest.test_case "admin stop" `Quick
            test_admin_stop_no_callbacks_after;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "fires at last rx + mult x interval" `Quick
            test_detect_at_last_rx;
          Alcotest.test_case "shorter interval re-arms earlier" `Quick
            test_shorter_interval_rearms_earlier;
          Alcotest.test_case "heap stays flat" `Quick test_heap_stays_flat;
        ] );
      ( "relay",
        [
          Alcotest.test_case "masks failure" `Quick test_relay_masks_failure;
          Alcotest.test_case "control: detection without relay" `Quick
            test_peer_detects_without_relay;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_detection_scales_with_interval ] );
    ]
