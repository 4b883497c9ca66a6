(* Direct tests of the BGP session FSM (below the speaker): handshake
   negotiation, validation failures, hold-timer behaviour, AS4 fallback,
   the replication hooks, and resume. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type rig = {
  eng : Engine.t;
  stack_a : Tcp.stack;
  stack_b : Tcp.stack;
  addr_a : Addr.t;
  addr_b : Addr.t;
}

let make_rig () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 200) a b in
  {
    eng;
    stack_a = Tcp.create_stack a;
    stack_b = Tcp.create_stack b;
    addr_a;
    addr_b;
  }

(* An active session config: the default hold time, port 179, GR
   advertised at 120 s, AS4 on; tests override fields with [with]. *)
let default_config ~local_asn ~router_id ~peer_addr () =
  {
    Bgp.Session.local_asn;
    router_id;
    local_addr = None;
    peer_addr;
    peer_asn = None;
    hold_time = Bgp.Session.default_hold_time;
    port = 179;
    passive = false;
    graceful_restart = Some 120;
    as4 = true;
  }

(* A passive responder session on stack_b accepting from [addr]. *)
let passive_responder ?(local_asn = 65002) ?(hold_time = 90)
    ?(graceful_restart = Some 120) r ~events () =
  Tcp.listen r.stack_b ~port:179 (fun conn ->
      let cfg =
        {
          (default_config ~local_asn ~router_id:r.addr_b
             ~peer_addr:r.addr_a ())
          with
          Bgp.Session.hold_time;
          graceful_restart;
        }
      in
      ignore
        (Bgp.Session.accept_passive r.stack_b cfg ~conn ~cb:(fun _ ev ->
             events := ev :: !events)))

let test_handshake_negotiates () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.hold_time = 30 (* lower than B's 90: min wins *);
    }
  in
  let events_a = ref [] in
  let sa =
    Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ ev ->
        events_a := ev :: !events_a)
  in
  Engine.run_for r.eng (Time.sec 3);
  checkb "established" true (Bgp.Session.state sa = Bgp.Session.Established);
  (match Bgp.Session.negotiated sa with
  | Some n ->
      checki "hold = min(30,90)" 30 n.Bgp.Session.hold_time;
      checkb "peer GR seen" true n.Bgp.Session.peer_supports_gr;
      checki "peer GR time" 120 n.Bgp.Session.peer_gr_restart_time;
      checkb "as4 negotiated" true n.Bgp.Session.as4_in_use;
      checki "peer asn" 65002 n.Bgp.Session.peer_open.Bgp.Msg.asn
  | None -> Alcotest.fail "no negotiation");
  checkb "established event on both sides" true
    (List.exists
       (function Bgp.Session.Session_established _ -> true | _ -> false)
       !events_a
    && List.exists
         (function Bgp.Session.Session_established _ -> true | _ -> false)
         !events_b)

let test_wrong_asn_rejected () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.peer_asn = Some 64999 (* expecting the wrong AS *);
    }
  in
  let down = ref None in
  let sa =
    Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ ev ->
        match ev with
        | Bgp.Session.Session_went_down reason -> down := Some reason
        | _ -> ())
  in
  Engine.run_for r.eng (Time.sec 3);
  checkb "session down" true (Bgp.Session.state sa = Bgp.Session.Down);
  match !down with
  | Some (Bgp.Session.Notification_sent n) ->
      checki "OPEN error" 2 n.Bgp.Msg.code;
      checki "bad peer AS subcode" 2 n.Bgp.Msg.subcode
  | _ -> Alcotest.fail "expected a sent notification"

let test_as4_disabled_falls_back () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.as4 = false;
    }
  in
  let sa = Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ _ -> ()) in
  Engine.run_for r.eng (Time.sec 3);
  match Bgp.Session.negotiated sa with
  | Some n -> checkb "as4 off when we disable it" false n.Bgp.Session.as4_in_use
  | None -> Alcotest.fail "not negotiated"

let test_hold_timer_kills_quiet_session () =
  (* Freeze B's stack after establishment: A stops hearing keepalives and
     must notify+drop when its (negotiated 9 s) hold timer fires. *)
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~hold_time:9 ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.hold_time = 9;
    }
  in
  let down = ref None in
  let sa =
    Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ ev ->
        match ev with
        | Bgp.Session.Session_went_down reason ->
            down := Some (reason, Engine.now r.eng)
        | _ -> ())
  in
  Engine.run_for r.eng (Time.sec 2);
  checkb "established first" true (Bgp.Session.state sa = Bgp.Session.Established);
  Tcp.freeze_stack r.stack_b;
  let frozen_at = Engine.now r.eng in
  Engine.run_for r.eng (Time.sec 30);
  match !down with
  | Some (Bgp.Session.Notification_sent n, at) ->
      checki "hold expired code" 4 n.Bgp.Msg.code;
      let waited = Time.to_sec_f (Time.diff at frozen_at) in
      checkb
        (Printf.sprintf "fired within the hold window (%.1fs)" waited)
        true
        (waited >= 3.0 && waited <= 10.0)
  | _ -> Alcotest.fail "hold timer did not fire"

let test_keepalives_flow_without_updates () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~hold_time:9 ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.hold_time = 9;
    }
  in
  let sa = Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ _ -> ()) in
  Engine.run_for r.eng (Time.minutes 2);
  checkb "still up after 2 minutes of silence" true
    (Bgp.Session.state sa = Bgp.Session.Established);
  checkb "many keepalives" true (Bgp.Session.keepalives_in sa > 20)

let test_pre_send_hook_covers_keepalives () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~hold_time:9 ~events:events_b ();
  let cfg_a =
    {
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      with
      Bgp.Session.hold_time = 9;
    }
  in
  let sa = Bgp.Session.start_active r.stack_a cfg_a ~cb:(fun _ _ -> ()) in
  let hooked = ref 0 in
  Bgp.Session.set_pre_send sa (fun msg _raw k ->
      (match msg with Bgp.Msg.Keepalive -> incr hooked | _ -> ());
      k ());
  Engine.run_for r.eng (Time.sec 30);
  checkb "keepalives pass through the replication hook" true (!hooked >= 5)

let test_on_message_sees_all_types () =
  let r = make_rig () in
  let events_b = ref [] in
  passive_responder r ~events:events_b ();
  let sa =
    Bgp.Session.start_active r.stack_a
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      ~cb:(fun _ _ -> ())
  in
  let seen = ref [] in
  Bgp.Session.set_on_message sa (fun msg ~raw ->
      checkb "frame at least a header" true (String.length raw >= 19);
      seen :=
        (match msg with
        | Bgp.Msg.Open _ -> "open"
        | Bgp.Msg.Keepalive -> "keepalive"
        | Bgp.Msg.Update _ -> "update"
        | Bgp.Msg.Notification _ -> "notification"
        | Bgp.Msg.Route_refresh _ -> "rr")
        :: !seen);
  Engine.run_for r.eng (Time.sec 3);
  checkb "saw OPEN" true (List.mem "open" !seen);
  checkb "saw KEEPALIVE" true (List.mem "keepalive" !seen)

let test_parsed_bytes_tracks_stream () =
  let r = make_rig () in
  let sb = ref None in
  Tcp.listen r.stack_b ~port:179 (fun conn ->
      let cfg =
        default_config ~local_asn:65002 ~router_id:r.addr_b
          ~peer_addr:r.addr_a ()
      in
      sb :=
        Some (Bgp.Session.accept_passive r.stack_b cfg ~conn ~cb:(fun _ _ -> ())));
  let sa =
    Bgp.Session.start_active r.stack_a
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      ~cb:(fun _ _ -> ())
  in
  Engine.run_for r.eng (Time.sec 3);
  let b = Option.get !sb in
  (* parsed_bytes at B = everything A wrote = A's conn delivered bytes. *)
  (match Bgp.Session.conn b with
  | Some c ->
      checki "parsed = delivered (message aligned)"
        (Tcp.delivered_bytes c)
        (Bgp.Session.parsed_bytes b)
  | None -> Alcotest.fail "no conn");
  ignore sa

let test_stop_sends_cease () =
  let r = make_rig () in
  let down_b = ref None in
  Tcp.listen r.stack_b ~port:179 (fun conn ->
      let cfg =
        default_config ~local_asn:65002 ~router_id:r.addr_b
          ~peer_addr:r.addr_a ()
      in
      ignore
        (Bgp.Session.accept_passive r.stack_b cfg ~conn ~cb:(fun _ ev ->
             match ev with
             | Bgp.Session.Session_went_down reason -> down_b := Some reason
             | _ -> ())));
  let sa =
    Bgp.Session.start_active r.stack_a
      (default_config ~local_asn:65001 ~router_id:r.addr_a
         ~peer_addr:r.addr_b ())
      ~cb:(fun _ _ -> ())
  in
  Engine.run_for r.eng (Time.sec 2);
  Bgp.Session.stop sa;
  Engine.run_for r.eng (Time.sec 2);
  match !down_b with
  | Some (Bgp.Session.Notification_received n) ->
      checki "cease" 6 n.Bgp.Msg.code
  | _ -> Alcotest.fail "peer did not receive Cease"

let () =
  Alcotest.run "session"
    [
      ( "handshake",
        [
          Alcotest.test_case "negotiates" `Quick test_handshake_negotiates;
          Alcotest.test_case "wrong ASN rejected" `Quick test_wrong_asn_rejected;
          Alcotest.test_case "as4 fallback" `Quick test_as4_disabled_falls_back;
        ] );
      ( "timers",
        [
          Alcotest.test_case "hold timer kills quiet session" `Quick
            test_hold_timer_kills_quiet_session;
          Alcotest.test_case "keepalives maintain" `Quick
            test_keepalives_flow_without_updates;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "pre_send covers keepalives" `Quick
            test_pre_send_hook_covers_keepalives;
          Alcotest.test_case "on_message sees all types" `Quick
            test_on_message_sees_all_types;
          Alcotest.test_case "parsed_bytes tracks stream" `Quick
            test_parsed_bytes_tracks_stream;
        ] );
      ( "teardown",
        [ Alcotest.test_case "stop sends Cease" `Quick test_stop_sends_cease ] );
    ]
