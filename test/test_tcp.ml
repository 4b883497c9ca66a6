(* Tests for the userspace TCP stack: handshake, transfer, loss recovery,
   teardown, the netfilter OUTPUT hook, and TCP_REPAIR migration. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* Two hosts joined by one link. *)
let pair ?delay ?loss ?proc_cost () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "client" and b = Network.add_node net "server" in
  let link, addr_a, addr_b = Network.connect net ?delay a b in
  Option.iter (Link.set_loss link) loss;
  let sa = Tcp.create_stack ?proc_cost a and sb = Tcp.create_stack ?proc_cost b in
  (eng, link, sa, sb, addr_a, addr_b)

(* A sink server accumulating everything it receives on [port]. *)
let sink stack ~port =
  let buf = Buffer.create 1024 in
  let conn = ref None in
  Tcp.listen stack ~port (fun c ->
      conn := Some c;
      Tcp.on_data c (fun s -> Buffer.add_string buf s));
  (buf, conn)

let test_handshake () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let accepted = ref false and established = ref false in
  Tcp.listen sb ~port:179 (fun _ -> accepted := true);
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> established := true);
  Engine.run_for eng (Time.sec 1);
  checkb "client established" true !established;
  checkb "server accepted" true !accepted;
  checkb "client state" true (Tcp.state c = Tcp.Established)

let test_initial_seq_numbers_visible () =
  (* TENSOR reads ISS/IRS via TCP_REPAIR at session start; both ends must
     agree on them. *)
  let eng, _, sa, sb, _, addr_b = pair () in
  let server_conn = ref None in
  Tcp.listen sb ~port:179 (fun c -> server_conn := Some c);
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Engine.run_for eng (Time.sec 1);
  match !server_conn with
  | None -> Alcotest.fail "no server conn"
  | Some s ->
      checki "client iss = server irs" (Tcp.iss c) (Tcp.irs s);
      checki "server iss = client irs" (Tcp.iss s) (Tcp.irs c)

let test_small_transfer () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let buf, _ = sink sb ~port:179 in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c "hello, bgp");
  Engine.run_for eng (Time.sec 1);
  checks "payload delivered" "hello, bgp" (Buffer.contents buf)

let test_write_before_established_is_buffered () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let buf, _ = sink sb ~port:179 in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.write c "early";
  Engine.run_for eng (Time.sec 1);
  checks "flushed after handshake" "early" (Buffer.contents buf)

let bulk_payload n =
  String.init n (fun i -> Char.chr (((i * 131) + (i / 251)) land 0xFF))

let test_bulk_transfer_integrity () =
  let eng, _, sa, sb, _, addr_b = pair ~delay:(Time.us 100) () in
  let buf, _ = sink sb ~port:179 in
  let payload = bulk_payload 300_000 in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () ->
      (* Write in odd-sized chunks to exercise segmentation. *)
      let pos = ref 0 in
      while !pos < String.length payload do
        let len = min 3_333 (String.length payload - !pos) in
        Tcp.write c (String.sub payload !pos len);
        pos := !pos + len
      done);
  Engine.run_for eng (Time.sec 10);
  checki "all bytes" (String.length payload) (Buffer.length buf);
  checkb "content identical" true (String.equal payload (Buffer.contents buf))

let test_bulk_transfer_with_loss () =
  let eng, _, sa, sb, _, addr_b =
    pair ~delay:(Time.us 200) ~loss:0.02 ()
  in
  let buf, _ = sink sb ~port:179 in
  let payload = bulk_payload 120_000 in
  let retransmits = Telemetry.Registry.counter "tcp.retransmits" in
  let before = Telemetry.Registry.value retransmits in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c payload);
  Engine.run_for eng (Time.sec 60);
  checkb "content identical despite loss" true
    (String.equal payload (Buffer.contents buf));
  checkb "losses actually recovered" true
    (Telemetry.Registry.value retransmits > before)

let test_bidirectional_transfer () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let to_server = Buffer.create 64 and to_client = Buffer.create 64 in
  Tcp.listen sb ~port:179 (fun s ->
      Tcp.on_data s (fun d -> Buffer.add_string to_server d);
      Tcp.write s "pong-stream");
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_data c (fun d -> Buffer.add_string to_client d);
  Tcp.on_established c (fun () -> Tcp.write c "ping-stream");
  Engine.run_for eng (Time.sec 2);
  checks "client->server" "ping-stream" (Buffer.contents to_server);
  checks "server->client" "pong-stream" (Buffer.contents to_client)

let test_graceful_close () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let server_reason = ref None and client_reason = ref None in
  Tcp.listen sb ~port:179 (fun s ->
      Tcp.on_close s (fun r -> server_reason := Some r);
      (* Close back when the peer half-closes. *)
      Tcp.on_remote_close s (fun () -> Tcp.close s));
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_close c (fun r -> client_reason := Some r);
  Tcp.on_established c (fun () ->
      Tcp.write c "bye";
      Tcp.close c);
  Engine.run_for eng (Time.sec 5);
  checkb "client closed normally" true (!client_reason = Some Tcp.Closed_normally);
  checkb "server closed normally" true (!server_reason = Some Tcp.Closed_normally)

let test_abort_resets_peer () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let server_reason = ref None in
  Tcp.listen sb ~port:179 (fun s -> Tcp.on_close s (fun r -> server_reason := Some r));
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.abort c);
  Engine.run_for eng (Time.sec 1);
  checkb "peer saw reset" true (!server_reason = Some Tcp.Reset);
  checkb "local closed" true (Tcp.state c = Tcp.Closed)

let test_connect_refused () =
  let eng, _, sa, _, _, addr_b = pair () in
  let reason = ref None in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:4444 () in
  Tcp.on_close c (fun r -> reason := Some r);
  Engine.run_for eng (Time.sec 2);
  checkb "refused" true (!reason = Some Tcp.Reset)

let test_connect_timeout () =
  let eng, link, sa, _, _, addr_b = pair () in
  Link.set_up link false;
  let reason = ref None in
  let c =
    Tcp.connect sa ~dst:addr_b ~dst_port:179 ()
  in
  Tcp.on_close c (fun r -> reason := Some r);
  Engine.run_for eng (Time.minutes 10);
  checkb "timed out" true (!reason = Some Tcp.Timed_out)

let test_established_timeout_on_blackhole () =
  let eng, link, sa, sb, _, addr_b = pair () in
  let buf, _ = sink sb ~port:179 in
  ignore buf;
  let reason = ref None in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_close c (fun r -> reason := Some r);
  Tcp.on_established c (fun () ->
      Link.set_up link false;
      Tcp.write c "into the void");
  Engine.run_for eng (Time.minutes 30);
  checkb "established timeout" true (!reason = Some Tcp.Timed_out)

let test_handshake_survives_synack_loss () =
  (* Drop the first SYN-ACK via a hostile tap-less approach: high loss
     briefly, then clean. Retransmission must still establish. *)
  let eng, link, sa, sb, _, addr_b = pair () in
  let established = ref false in
  Tcp.listen sb ~port:179 (fun _ -> ());
  Link.set_loss link 1.0;
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> established := true);
  ignore (Engine.schedule_after eng (Time.ms 150) (fun () -> Link.set_loss link 0.0));
  Engine.run_for eng (Time.sec 10);
  checkb "established after retransmit" true !established

let test_srtt_measured () =
  let eng, _, sa, sb, _, addr_b = pair ~delay:(Time.ms 5) () in
  let buf, _ = sink sb ~port:179 in
  ignore buf;
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c (String.make 5000 'x'));
  Engine.run_for eng (Time.sec 2);
  match Tcp.srtt c with
  | Some rtt -> checkb "srtt near 2*5ms" true (rtt > 0.009 && rtt < 0.013)
  | None -> Alcotest.fail "no rtt sample"

(* --- Netfilter OUTPUT hook -------------------------------------------- *)

let test_output_hook_sees_segments () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let chain = Netfilter.create () in
  let seen = ref 0 in
  ignore
    (Netfilter.add_rule chain (fun pkt ->
         (match pkt.Packet.payload with
         | Tcp.Segment.Tcp _ -> incr seen
         | _ -> ());
         Netfilter.Accept));
  Tcp.set_output_chain sa (Some chain);
  let buf, _ = sink sb ~port:179 in
  ignore buf;
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c "data");
  Engine.run_for eng (Time.sec 1);
  checkb "hook saw client's SYN+ACK+data" true (!seen >= 3)

let test_ack_delay_slows_transfer () =
  (* Hold the server's pure ACKs for 30 ms: the sender becomes
     window-limited and a 400 KB-window transfer of 2 MB takes at least
     (2MB/400KB - 1) * 30ms extra. *)
  let run ~hold =
    let eng, _, sa, sb, _, addr_b = pair ~delay:(Time.us 50) () in
    let chain = Netfilter.create () in
    (if hold then begin
       ignore
         (Netfilter.add_rule chain (fun pkt ->
              match pkt.Packet.payload with
              | Tcp.Segment.Tcp seg when Tcp.Segment.is_pure_ack seg ->
                  Netfilter.Queue 0
              | _ -> Netfilter.Accept));
       let q = Netfilter.queue chain 0 in
       Netfilter.set_consumer q (fun _ ~reinject ->
           ignore
             (Engine.schedule_after eng (Time.ms 30) (fun () ->
                  reinject Netfilter.Accept)))
     end);
    Tcp.set_output_chain sb (Some chain);
    let buf, _ = sink sb ~port:179 in
    let payload = String.make 2_000_000 'z' in
    let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
    Tcp.on_established c (fun () -> Tcp.write c payload);
    let done_at = ref None in
    let rec poll () =
      if Buffer.length buf >= String.length payload then
        done_at := Some (Engine.now eng)
      else ignore (Engine.schedule_after eng (Time.ms 10) poll)
    in
    poll ();
    Engine.run_for eng (Time.sec 120);
    match !done_at with
    | Some t -> t
    | None -> Alcotest.fail "transfer did not finish"
  in
  let fast = run ~hold:false and slow = run ~hold:true in
  checkb "delayed ACKs slow the transfer" true (slow > fast);
  checkb "meaningfully slower" true (slow - fast > Time.ms 60)

let test_queued_acks_do_not_deadlock () =
  (* ACK hold + retransmissions must still converge. *)
  let eng, _, sa, sb, _, addr_b = pair ~loss:0.01 () in
  let chain = Netfilter.create () in
  ignore
    (Netfilter.add_rule chain (fun pkt ->
         match pkt.Packet.payload with
         | Tcp.Segment.Tcp seg when Tcp.Segment.is_pure_ack seg ->
             Netfilter.Queue 0
         | _ -> Netfilter.Accept));
  let q = Netfilter.queue chain 0 in
  Netfilter.set_consumer q (fun _ ~reinject ->
      ignore
        (Engine.schedule_after eng (Time.ms 2) (fun () ->
             reinject Netfilter.Accept)));
  Tcp.set_output_chain sb (Some chain);
  let buf, _ = sink sb ~port:179 in
  let payload = bulk_payload 100_000 in
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c payload);
  Engine.run_for eng (Time.minutes 2);
  checkb "delivered" true (String.equal payload (Buffer.contents buf))

(* --- Repair / migration ------------------------------------------------ *)

(* Topology: peer -- router -- host1/host2. The service address lives on
   host1 and migrates to host2. *)
let migration_topology () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let peer = Network.add_node net "peer" in
  let router = Network.add_node net ~forwarding:true "router" in
  let host1 = Network.add_node net "host1" in
  let host2 = Network.add_node net "host2" in
  let _, peer_addr, r_from_peer = Network.connect net peer router in
  let _, r_to_h1, h1_addr = Network.connect net router host1 in
  let _, r_to_h2, h2_addr = Network.connect net router host2 in
  ignore r_to_h1;
  ignore r_to_h2;
  let vip = Addr.of_string "203.0.113.10" in
  Node.add_address host1 vip;
  Node.add_route peer (Addr.prefix vip 32) r_from_peer;
  Node.add_route router (Addr.prefix vip 32) h1_addr;
  Node.add_route host1 (Addr.prefix_of_string "0.0.0.0/0") (List.nth (Node.ifaces host1) 0).Node.remote;
  Node.add_route host2 (Addr.prefix_of_string "0.0.0.0/0") (List.nth (Node.ifaces host2) 0).Node.remote;
  let reroute_to_host2 () =
    Node.add_address host2 vip;
    Node.add_route router (Addr.prefix vip 32) h2_addr
  in
  (eng, net, peer, host1, host2, peer_addr, vip, reroute_to_host2)

let test_repair_export_consistent () =
  let eng, _, sa, sb, _, addr_b = pair () in
  let buf, sconn = sink sb ~port:179 in
  ignore buf;
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c "state to snapshot");
  Engine.run_for eng (Time.sec 1);
  let r = Tcp.export_repair c in
  checkb "consistent" true (Tcp.Repair.consistent r);
  checki "no unacked after ack" 0 (List.length r.Tcp.Repair.unacked);
  match !sconn with
  | Some s ->
      let rs = Tcp.export_repair s in
      checkb "server consistent" true (Tcp.Repair.consistent rs);
      checki "mirrored seqs" r.Tcp.Repair.snd_nxt rs.Tcp.Repair.rcv_nxt
  | None -> Alcotest.fail "no server conn"

let test_migration_transparent_to_peer () =
  let eng, _, peer, host1, host2, _, vip, reroute = migration_topology () in
  let s_peer = Tcp.create_stack peer in
  let s1 = Tcp.create_stack host1 in
  let s2 = Tcp.create_stack host2 in
  (* The service on host1 echoes nothing; peer streams to it. *)
  let received = Buffer.create 1024 in
  let service_conn = ref None in
  Tcp.listen s1 ~port:179 (fun c ->
      service_conn := Some c;
      Tcp.on_data c (fun d -> Buffer.add_string received d));
  let peer_closed = ref false in
  let c = Tcp.connect s_peer ~dst:vip ~dst_port:179 () in
  Tcp.on_close c (fun _ -> peer_closed := true);
  Tcp.on_established c (fun () -> Tcp.write c (bulk_payload 20_000));
  Engine.run_for eng (Time.sec 2);
  (* Snapshot, crash host1, restore on host2. *)
  let snap = Tcp.export_repair (Option.get !service_conn) in
  Node.set_up host1 false;
  reroute ();
  let c2 = Tcp.import_repair s2 snap in
  Tcp.on_data c2 (fun d -> Buffer.add_string received d);
  (* Peer keeps sending after the migration. *)
  Tcp.write c (bulk_payload 20_000);
  Engine.run_for eng (Time.sec 30);
  checkb "peer never saw a failure" true (not !peer_closed);
  checkb "peer conn still established" true (Tcp.state c = Tcp.Established);
  checki "all bytes arrived across migration" 40_000 (Buffer.length received)

let test_migration_with_unacked_data () =
  (* The snapshot carries unacked send data; after import the backup
     retransmits it and the peer's stream is not disturbed. *)
  let eng, _, peer, host1, host2, _, vip, reroute = migration_topology () in
  let s_peer = Tcp.create_stack peer in
  let s1 = Tcp.create_stack host1 in
  let s2 = Tcp.create_stack host2 in
  let service_conn = ref None in
  Tcp.listen s1 ~port:179 (fun c -> service_conn := Some c);
  let peer_got = Buffer.create 1024 in
  let c = Tcp.connect s_peer ~dst:vip ~dst_port:179 () in
  Tcp.on_data c (fun d -> Buffer.add_string peer_got d);
  Engine.run_for eng (Time.sec 1);
  let server = Option.get !service_conn in
  (* Isolate host1 *before* it writes, so everything it sends is lost and
     stays unacked in the snapshot. *)
  Node.set_up host1 false;
  let payload = bulk_payload 5_000 in
  Tcp.write server payload;
  Engine.run_for eng (Time.ms 500);
  let snap = Tcp.export_repair server in
  checkb "snapshot has unacked data" true (List.length snap.Tcp.Repair.unacked > 0);
  reroute ();
  ignore (Tcp.import_repair s2 snap);
  Engine.run_for eng (Time.sec 30);
  checkb "peer received the retransmitted stream" true
    (String.equal payload (Buffer.contents peer_got))

let test_import_rejects_inconsistent () =
  let eng, _, _, _, _, _, _, _ = migration_topology () in
  ignore eng;
  let bogus =
    {
      Tcp.Repair.quad =
        Tcp.Quad.v (Addr.of_string "1.1.1.1") 1 (Addr.of_string "2.2.2.2") 2;
      mss = 1460;
      rcv_wnd = 400_000;
      iss = 100;
      irs = 50;
      snd_una = 90 (* below iss: inconsistent *);
      snd_nxt = 120;
      rcv_nxt = 60;
      peer_wnd = 65535;
      unacked = [];
    }
  in
  checkb "flagged inconsistent" false (Tcp.Repair.consistent bogus)

let test_delivered_bytes_tracks_ack_inference () =
  (* TENSOR's inferred ACK is irs + 1 + delivered_bytes; it must equal the
     peer-visible rcv_nxt. *)
  let eng, _, sa, sb, _, addr_b = pair () in
  let sconn = ref None in
  Tcp.listen sb ~port:179 (fun c -> sconn := Some c);
  let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
  Tcp.on_established c (fun () -> Tcp.write c (bulk_payload 12_345));
  Engine.run_for eng (Time.sec 2);
  let s = Option.get !sconn in
  checki "inferred ack = rcv_nxt"
    (Tcp.irs s + 1 + Tcp.delivered_bytes s)
    (Tcp.rcv_nxt s)

(* --- Stream_buf -------------------------------------------------------- *)

let test_stream_buf_basic () =
  let sb = Tcp.Stream_buf.create 100 in
  Tcp.Stream_buf.append sb "hello";
  Tcp.Stream_buf.append sb "world";
  checki "start" 100 (Tcp.Stream_buf.start_seq sb);
  checki "end" 110 (Tcp.Stream_buf.end_seq sb);
  checks "read across chunks" "lowor" (Tcp.Stream_buf.read sb ~seq:103 ~len:5);
  checks "zero-copy whole chunk" "hello" (Tcp.Stream_buf.read sb ~seq:100 ~len:5);
  checks "clipped read" "rld" (Tcp.Stream_buf.read sb ~seq:107 ~len:50)

let test_stream_buf_drop () =
  let sb = Tcp.Stream_buf.create 0 in
  Tcp.Stream_buf.append sb "aaaa";
  Tcp.Stream_buf.append sb "bbbb";
  Tcp.Stream_buf.drop_until sb 6;
  checki "start advanced" 6 (Tcp.Stream_buf.start_seq sb);
  checks "tail readable" "bb" (Tcp.Stream_buf.read sb ~seq:6 ~len:10);
  Tcp.Stream_buf.drop_until sb 100;
  checkb "emptied" true (Tcp.Stream_buf.chunks_from sb ~seq:8 = []);
  checki "start clipped to end" 8 (Tcp.Stream_buf.start_seq sb)

let test_stream_buf_chunks_from () =
  let sb = Tcp.Stream_buf.create 0 in
  Tcp.Stream_buf.append sb "aaa";
  Tcp.Stream_buf.append sb "bbb";
  let chunks = Tcp.Stream_buf.chunks_from sb ~seq:1 in
  Alcotest.(check (list (pair int string)))
    "partial head chunk"
    [ (1, "aa"); (3, "bbb") ]
    chunks

let test_stream_buf_read_below_start () =
  let sb = Tcp.Stream_buf.create 10 in
  Tcp.Stream_buf.append sb "xyz";
  Tcp.Stream_buf.drop_until sb 12;
  Alcotest.check_raises "below start" (Invalid_argument "x") (fun () ->
      try ignore (Tcp.Stream_buf.read sb ~seq:11 ~len:1)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

(* --- Congestion -------------------------------------------------------- *)

let test_congestion_slow_start () =
  let cc = Tcp.Congestion.create ~mss:1000 in
  checki "initcwnd 10 mss" 10_000 (Tcp.Congestion.window cc);
  (* Each full-MSS ACK grows the window by one MSS in slow start. *)
  let una = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Tcp.Congestion.on_ack cc ~snd_una:!una ~snd_nxt:(!una + 10_000)
         ~ack:(!una + 1000));
    una := !una + 1000
  done;
  checki "grew by 5 mss" 15_000 (Tcp.Congestion.window cc)

let test_congestion_fast_retransmit_on_third_dup () =
  let cc = Tcp.Congestion.create ~mss:1000 in
  let r1 = Tcp.Congestion.on_ack cc ~snd_una:5000 ~snd_nxt:20000 ~ack:5000 in
  let r2 = Tcp.Congestion.on_ack cc ~snd_una:5000 ~snd_nxt:20000 ~ack:5000 in
  let r3 = Tcp.Congestion.on_ack cc ~snd_una:5000 ~snd_nxt:20000 ~ack:5000 in
  checkb "first two ignored" true
    (r1 = Tcp.Congestion.Ignore && r2 = Tcp.Congestion.Ignore);
  checkb "third triggers" true (r3 = Tcp.Congestion.Fast_retransmit);
  checkb "in recovery" true (Tcp.Congestion.in_recovery cc);
  (* Full ACK ends recovery and deflates to ssthresh. *)
  ignore (Tcp.Congestion.on_ack cc ~snd_una:5000 ~snd_nxt:20000 ~ack:20000);
  checkb "recovery done" false (Tcp.Congestion.in_recovery cc);
  checki "deflated" (Tcp.Congestion.ssthresh cc) (Tcp.Congestion.window cc)

let test_congestion_rto_collapse () =
  let cc = Tcp.Congestion.create ~mss:1000 in
  Tcp.Congestion.on_rto cc;
  checki "one mss" 1000 (Tcp.Congestion.window cc);
  checki "ssthresh halved from initial" 5000 (Tcp.Congestion.ssthresh cc)

(* --- Properties -------------------------------------------------------- *)

let prop_stream_integrity =
  QCheck.Test.make ~name:"tcp delivers exactly the written stream"
    ~count:25
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20)
           (string_of_size Gen.(int_range 1 4000)))
        (int_range 0 3))
    (fun (writes, loss_pct) ->
      let eng, _, sa, sb, _, addr_b =
        pair ~loss:(float_of_int loss_pct /. 100.) ()
      in
      let buf, _ = sink sb ~port:179 in
      let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
      Tcp.on_established c (fun () -> List.iter (Tcp.write c) writes);
      Engine.run_for eng (Time.minutes 5);
      String.equal (String.concat "" writes) (Buffer.contents buf))

let prop_congestion_window_bounds =
  QCheck.Test.make ~name:"cwnd stays >= 1 MSS through arbitrary ack traces"
    ~count:200
    QCheck.(list (int_bound 3))
    (fun events ->
      let mss = 1460 in
      let cc = Tcp.Congestion.create ~mss in
      let una = ref 0 and nxt = ref 20_000 in
      List.for_all
        (fun e ->
          (match e with
          | 0 ->
              (* new ack for one mss *)
              ignore
                (Tcp.Congestion.on_ack cc ~snd_una:!una ~snd_nxt:!nxt
                   ~ack:(!una + mss));
              una := !una + mss;
              nxt := max !nxt (!una + 10_000)
          | 1 ->
              (* duplicate ack *)
              ignore
                (Tcp.Congestion.on_ack cc ~snd_una:!una ~snd_nxt:!nxt ~ack:!una)
          | 2 -> Tcp.Congestion.on_rto cc
          | _ ->
              (* full ack of everything outstanding *)
              ignore
                (Tcp.Congestion.on_ack cc ~snd_una:!una ~snd_nxt:!nxt ~ack:!nxt);
              una := !nxt;
              nxt := !una + 10_000);
          Tcp.Congestion.window cc >= mss
          && Tcp.Congestion.ssthresh cc >= 2 * mss)
        events)

let prop_repair_roundtrip_consistent =
  QCheck.Test.make ~name:"export_repair is always consistent" ~count:20
    QCheck.(int_range 0 50_000)
    (fun nbytes ->
      let eng, _, sa, sb, _, addr_b = pair () in
      let sconn = ref None in
      Tcp.listen sb ~port:179 (fun c -> sconn := Some c);
      let c = Tcp.connect sa ~dst:addr_b ~dst_port:179 () in
      Tcp.on_established c (fun () ->
          if nbytes > 0 then Tcp.write c (String.make nbytes 'p'));
      Engine.run_for eng (Time.ms 50);
      (* Mid-flight snapshot. *)
      let ok1 = Tcp.Repair.consistent (Tcp.export_repair c) in
      Engine.run_for eng (Time.sec 5);
      let ok2 = Tcp.Repair.consistent (Tcp.export_repair c) in
      ok1 && ok2)

let () =
  Alcotest.run "tcp"
    [
      ( "handshake",
        [
          Alcotest.test_case "establishes" `Quick test_handshake;
          Alcotest.test_case "initial seqs visible" `Quick
            test_initial_seq_numbers_visible;
          Alcotest.test_case "survives SYN-ACK loss" `Quick
            test_handshake_survives_synack_loss;
          Alcotest.test_case "refused port" `Quick test_connect_refused;
          Alcotest.test_case "connect timeout" `Quick test_connect_timeout;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "small" `Quick test_small_transfer;
          Alcotest.test_case "write before established" `Quick
            test_write_before_established_is_buffered;
          Alcotest.test_case "bulk integrity" `Quick test_bulk_transfer_integrity;
          Alcotest.test_case "bulk with loss" `Quick test_bulk_transfer_with_loss;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional_transfer;
          Alcotest.test_case "srtt measured" `Quick test_srtt_measured;
        ] );
      ( "teardown",
        [
          Alcotest.test_case "graceful close" `Quick test_graceful_close;
          Alcotest.test_case "abort resets peer" `Quick test_abort_resets_peer;
          Alcotest.test_case "blackhole times out" `Quick
            test_established_timeout_on_blackhole;
        ] );
      ( "netfilter",
        [
          Alcotest.test_case "hook sees segments" `Quick
            test_output_hook_sees_segments;
          Alcotest.test_case "ack delay slows transfer" `Slow
            test_ack_delay_slows_transfer;
          Alcotest.test_case "queued acks no deadlock" `Quick
            test_queued_acks_do_not_deadlock;
        ] );
      ( "repair",
        [
          Alcotest.test_case "export consistent" `Quick
            test_repair_export_consistent;
          Alcotest.test_case "migration transparent" `Quick
            test_migration_transparent_to_peer;
          Alcotest.test_case "migration with unacked data" `Quick
            test_migration_with_unacked_data;
          Alcotest.test_case "rejects inconsistent" `Quick
            test_import_rejects_inconsistent;
          Alcotest.test_case "ack inference invariant" `Quick
            test_delivered_bytes_tracks_ack_inference;
        ] );
      ( "stream_buf",
        [
          Alcotest.test_case "basic" `Quick test_stream_buf_basic;
          Alcotest.test_case "drop" `Quick test_stream_buf_drop;
          Alcotest.test_case "chunks_from" `Quick test_stream_buf_chunks_from;
          Alcotest.test_case "read below start" `Quick
            test_stream_buf_read_below_start;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "slow start" `Quick test_congestion_slow_start;
          Alcotest.test_case "fast retransmit" `Quick
            test_congestion_fast_retransmit_on_third_dup;
          Alcotest.test_case "rto collapse" `Quick test_congestion_rto_collapse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stream_integrity;
            prop_congestion_window_bounds;
            prop_repair_roundtrip_consistent;
          ] );
    ]
