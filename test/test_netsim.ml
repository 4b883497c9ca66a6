(* Tests for addresses, links, nodes, topology and RPC. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- Addr -------------------------------------------------------------- *)

let test_addr_roundtrip () =
  let a = Addr.of_string "192.168.1.42" in
  checks "roundtrip" "192.168.1.42" (Addr.to_string a);
  checki "int value" 0xC0A8012A (Addr.to_int a)

let test_addr_of_octets () =
  checks "octets" "10.0.255.1" (Addr.to_string (Addr.of_octets 10 0 255 1))

let test_addr_malformed () =
  List.iter
    (fun s ->
      Alcotest.check_raises "rejects" (Invalid_argument "bad") (fun () ->
          try ignore (Addr.of_string s)
          with Invalid_argument _ -> raise (Invalid_argument "bad")))
    [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; ""; "1.2.3.-4" ]

let test_addr_succ_offset () =
  let a = Addr.of_string "10.0.0.255" in
  checks "succ crosses octet" "10.0.1.0" (Addr.to_string (Addr.succ a));
  checks "offset" "10.0.1.9" (Addr.to_string (Addr.offset a 10));
  let top = Addr.of_string "255.255.255.255" in
  checks "wraps" "0.0.0.0" (Addr.to_string (Addr.succ top))

let test_prefix_canonical () =
  let p = Addr.prefix (Addr.of_string "10.1.2.3") 24 in
  checks "canonicalized" "10.1.2.0/24" (Addr.prefix_to_string p)

let test_prefix_contains () =
  let p = Addr.prefix_of_string "10.1.2.0/24" in
  checkb "inside" true (Addr.contains p (Addr.of_string "10.1.2.200"));
  checkb "outside" false (Addr.contains p (Addr.of_string "10.1.3.1"));
  let default = Addr.prefix_of_string "0.0.0.0/0" in
  checkb "default contains all" true
    (Addr.contains default (Addr.of_string "203.0.113.7"))

let test_prefix_subsumes () =
  let p16 = Addr.prefix_of_string "10.1.0.0/16" in
  let p24 = Addr.prefix_of_string "10.1.2.0/24" in
  checkb "wider subsumes narrower" true (Addr.subsumes p16 p24);
  checkb "narrower does not subsume" false (Addr.subsumes p24 p16);
  checkb "self subsumes" true (Addr.subsumes p24 p24)

let test_prefix_host_in () =
  let p = Addr.prefix_of_string "10.1.2.0/30" in
  checks "host 1" "10.1.2.1" (Addr.to_string (Addr.host_in p 1));
  checki "size" 4 (Addr.prefix_size p);
  Alcotest.check_raises "out of range" (Invalid_argument "oob") (fun () ->
      try ignore (Addr.host_in p 4)
      with Invalid_argument _ -> raise (Invalid_argument "oob"))

let test_prefix_bad_len () =
  Alcotest.check_raises "33 rejected" (Invalid_argument "len") (fun () ->
      try ignore (Addr.prefix (Addr.of_int 0) 33)
      with Invalid_argument _ -> raise (Invalid_argument "len"))

(* --- Link and Node ----------------------------------------------------- *)

let two_nodes ?delay ?bandwidth_bps () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  let link, addr_a, addr_b =
    match bandwidth_bps with
    | None -> Network.connect net ?delay a b
    | Some bandwidth_bps ->
        (* [Network.connect]'s wiring around a slow link. *)
        let link = Link.create eng ?delay ~bandwidth_bps () in
        let addr_a = Addr.of_string "10.0.0.1"
        and addr_b = Addr.of_string "10.0.0.2" in
        Node.attach a link Link.A ~local:addr_a ~remote:addr_b;
        Node.attach b link Link.B ~local:addr_b ~remote:addr_a;
        (link, addr_a, addr_b)
  in
  (eng, net, a, b, link, addr_a, addr_b)

let test_link_delivery () =
  let eng, _, a, b, _, addr_a, addr_b = two_nodes ~delay:(Time.ms 1) () in
  let got = ref None in
  Node.add_handler b (fun pkt ->
      got := Some (pkt.Packet.payload, Engine.now eng);
      true);
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:100 (Packet.Raw "hi"));
  Engine.run eng;
  match !got with
  | Some (Packet.Raw "hi", at) ->
      checkb "after propagation delay" true (at >= Time.ms 1)
  | _ -> Alcotest.fail "packet not delivered"

let test_link_serialization_delay () =
  (* 1 MB at 8 Mbps = 1 s of serialization + negligible propagation. *)
  let eng, _, a, b, _, addr_a, addr_b =
    two_nodes ~delay:(Time.us 1) ~bandwidth_bps:8_000_000 ()
  in
  let at = ref Time.zero in
  Node.add_handler b (fun _ ->
      at := Engine.now eng;
      true);
  Node.send a
    (Packet.make ~src:addr_a ~dst:addr_b ~size:1_000_000 (Packet.Raw "x"));
  Engine.run eng;
  checkb "~1s serialization" true (!at >= Time.sec 1 && !at < Time.ms 1100)

let test_link_queueing () =
  (* Two packets back-to-back serialize sequentially. *)
  let eng, _, a, b, _, addr_a, addr_b =
    two_nodes ~delay:(Time.us 1) ~bandwidth_bps:8_000_000 ()
  in
  let times = ref [] in
  Node.add_handler b (fun _ ->
      times := Engine.now eng :: !times;
      true);
  for _ = 1 to 2 do
    Node.send a
      (Packet.make ~src:addr_a ~dst:addr_b ~size:100_000 (Packet.Raw "x"))
  done;
  Engine.run eng;
  match List.rev !times with
  | [ t1; t2 ] ->
      (* Each packet takes 100 ms to serialize. *)
      checkb "first ~100ms" true (t1 >= Time.ms 100 && t1 < Time.ms 110);
      checkb "second ~200ms" true (t2 >= Time.ms 200 && t2 < Time.ms 210)
  | _ -> Alcotest.fail "expected two deliveries"

let test_link_down_drops () =
  let eng, _, a, b, link, addr_a, addr_b = two_nodes () in
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  Link.set_up link false;
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "dropped" 0 !got;
  checki "drop counted" 1 (Link.dropped_packets link);
  Link.set_up link true;
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "delivered after up" 1 !got

let test_link_failure_kills_in_flight () =
  let eng, _, a, b, link, addr_a, addr_b = two_nodes ~delay:(Time.ms 10) () in
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  (* Fail the link while the packet is propagating. *)
  ignore (Engine.schedule_after eng (Time.ms 5) (fun () -> Link.set_up link false));
  Engine.run eng;
  checki "in-flight packet lost" 0 !got

let test_link_fail_for () =
  let eng, _, a, b, link, addr_a, addr_b = two_nodes ~delay:(Time.us 10) () in
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  Link.fail_for link (Time.ms 100);
  ignore
    (Engine.schedule_after eng (Time.ms 50) (fun () ->
         Node.send a
           (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "during"))));
  ignore
    (Engine.schedule_after eng (Time.ms 150) (fun () ->
         Node.send a
           (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "after"))));
  Engine.run eng;
  checki "only post-recovery delivered" 1 !got

let test_link_loss () =
  let eng, _, a, b, link, addr_a, addr_b = two_nodes () in
  Link.set_loss link 0.5;
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  for _ = 1 to 1000 do
    Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"))
  done;
  Engine.run eng;
  checkb "about half lost" true (!got > 350 && !got < 650);
  checki "conservation" 1000 (!got + Link.dropped_packets link)

let test_link_tap_and_stats () =
  let eng, _, a, b, link, addr_a, addr_b = two_nodes () in
  Node.add_handler b (fun _ -> true);
  let tapped = ref [] in
  Link.tap link (fun side pkt -> tapped := (side, pkt.Packet.size, Engine.now eng) :: !tapped);
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:500 (Packet.Raw "x"));
  Engine.run eng;
  (match !tapped with
  | [ (Link.B, 500, at) ] -> checkb "tapped at arrival" true (at > Time.zero)
  | _ -> Alcotest.fail "tap should see one 500-byte arrival at B");
  checki "delivered" 1 (Link.delivered_packets link);
  checki "none dropped" 0 (Link.dropped_packets link)

let test_node_down_silently_drops () =
  let eng, _, a, b, _, addr_a, addr_b = two_nodes () in
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  Node.set_up b false;
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "down node drops rx" 0 !got;
  Node.set_up b true;
  Node.set_up a false;
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "down node drops tx" 0 !got

let test_node_loopback () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" in
  Node.add_address a (Addr.of_string "127.0.0.1");
  let got = ref 0 in
  Node.add_handler a (fun _ ->
      incr got;
      true);
  Node.send a
    (Packet.make ~src:(Addr.of_string "127.0.0.1")
       ~dst:(Addr.of_string "127.0.0.1") ~size:64 (Packet.Raw "x"));
  checki "not delivered reentrantly" 0 !got;
  Engine.run eng;
  checki "delivered via event" 1 !got

let test_forwarding_three_hop () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" in
  let r = Network.add_node net ~forwarding:true "r" in
  let b = Network.add_node net "b" in
  let _, _addr_a, addr_ra = Network.connect net a r in
  let _, addr_rb, addr_b = Network.connect net r b in
  (* a reaches b's subnet via r. *)
  Node.add_route a (Addr.prefix addr_b 24) addr_ra;
  ignore addr_rb;
  let got = ref 0 in
  Node.add_handler b (fun _ ->
      incr got;
      true);
  Node.send a
    (Packet.make ~src:(List.hd (Node.addresses a)) ~dst:addr_b ~size:64
       (Packet.Raw "x"));
  Engine.run eng;
  checki "forwarded" 1 !got

let test_no_route_counted () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" in
  Node.add_address a (Addr.of_string "1.1.1.1");
  Node.send a
    (Packet.make ~src:(Addr.of_string "1.1.1.1")
       ~dst:(Addr.of_string "9.9.9.9") ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "unrouted" 1 (Node.unrouted_packets a)

let test_longest_prefix_match () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" in
  let r1 = Network.add_node net ~forwarding:true "r1" in
  let r2 = Network.add_node net ~forwarding:true "r2" in
  let _, _, gw1 = Network.connect net a r1 in
  let _, _, gw2 = Network.connect net a r2 in
  let target = Addr.of_string "20.0.5.9" in
  (* Default via r1, but the /24 of the target via r2. *)
  Node.add_route a (Addr.prefix_of_string "0.0.0.0/0") gw1;
  Node.add_route a (Addr.prefix target 24) gw2;
  (* r2 owns the target so delivery succeeds there. *)
  Node.add_address r2 target;
  let got_r2 = ref 0 in
  Node.add_handler r2 (fun _ ->
      incr got_r2;
      true);
  Node.send a
    (Packet.make ~src:(List.hd (Node.addresses a)) ~dst:target ~size:64
       (Packet.Raw "x"));
  Engine.run eng;
  checki "specific route wins" 1 !got_r2

let test_unclaimed_counted () =
  let eng, _, a, b, _, addr_a, addr_b = two_nodes () in
  ignore a;
  Node.send a (Packet.make ~src:addr_a ~dst:addr_b ~size:64 (Packet.Raw "x"));
  Engine.run eng;
  checki "unclaimed" 1 (Node.unclaimed_packets b)

let test_network_registry () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" and b = Network.add_node net "b" in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Network.add_node: duplicate name \"a\"") (fun () ->
      ignore (Network.add_node net "a"));
  let link, _, _ = Network.connect net a b in
  (match Network.link_between net b a with
  | Some l -> checkb "link_between" true (l == link)
  | None -> Alcotest.fail "link_between missing");
  checkb "no link to self" true (Network.link_between net a a = None)

(* A forwarded hop allocates nothing: the node decrements the packet's
   TTL in place, and each link direction's packets in flight are items
   of one engine fifo, which keeps only its head in the event queue, in
   one record. A second batch runs after a first one has grown the
   queues and rings and filled the forwarding caches, so only
   per-packet costs remain. *)
let test_forwarded_hop_allocation () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "a" in
  let r = Network.add_node net ~forwarding:true "r" in
  let b = Network.add_node net "b" in
  let _, _, addr_ra = Network.connect net a r in
  let _, _, addr_b = Network.connect net r b in
  Node.add_route a (Addr.prefix addr_b 24) addr_ra;
  let got = ref 0 and ttl = ref 0 in
  Node.add_handler b (fun p ->
      incr got;
      ttl := p.Packet.ttl;
      true);
  let n = 1000 and src = List.hd (Node.addresses a) in
  let batch () =
    Array.init n (fun _ -> Packet.make ~src ~dst:addr_b ~size:64 (Packet.Raw "x"))
  in
  let send pkts () =
    Array.iter (fun p -> Node.send a p) pkts;
    Engine.run eng
  in
  send (batch ()) ();
  let pkts = batch () in
  let before = Gc.minor_words () in
  send pkts ();
  let w = Gc.minor_words () -. before in
  checki "every packet delivered" (2 * n) !got;
  checki "one forwarding hop off the ttl" 63 !ttl;
  if w > 64.0 then Alcotest.failf "%.0f words for %d hops: more than 64" w (2 * n)

(* --- RPC --------------------------------------------------------------- *)

type Rpc.body += Echo of string

let test_rpc_roundtrip () =
  let eng, _, a, b, _, _, addr_b = two_nodes ~delay:(Time.ms 1) () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve ep_b ~service:"echo" (fun ~src:_ body ~reply ->
      match body with
      | Echo s -> reply (Echo (s ^ s))
      | _ -> reply (Echo "?"));
  let result = ref None in
  Rpc.call ep_a ~dst:addr_b ~service:"echo" (Echo "ab") (fun r ->
      result := Some r);
  Engine.run eng;
  match !result with
  | Some (Ok (Echo "abab")) -> ()
  | _ -> Alcotest.fail "echo failed"

let test_rpc_timeout_on_dead_server () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a in
  Node.set_up b false;
  let result = ref None in
  Rpc.call ep_a ~timeout:(Time.ms 500) ~dst:addr_b ~service:"echo"
    (Echo "x") (fun r -> result := Some r);
  Engine.run eng;
  (match !result with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout");
  checkb "timed out at 500ms" true (Engine.now eng >= Time.ms 500)

let test_rpc_timeout_unknown_service () =
  let eng, _, a, _, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a in
  let result = ref None in
  Rpc.call ep_a ~timeout:(Time.ms 100) ~dst:addr_b ~service:"nope" (Echo "x")
    (fun r -> result := Some r);
  Engine.run eng;
  match !result with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_rpc_delayed_reply () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve ep_b ~service:"slow" (fun ~src:_ _ ~reply ->
      ignore
        (Engine.schedule_after eng (Time.ms 200) (fun () -> reply (Echo "late"))));
  let at = ref Time.zero in
  Rpc.call ep_a ~dst:addr_b ~service:"slow" (Echo "x") (fun _ ->
      at := Engine.now eng);
  Engine.run eng;
  checkb "reply after processing delay" true (!at >= Time.ms 200)

let test_rpc_ping () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve_ping ep_b ~service:"health";
  let ok = ref None in
  Rpc.ping ep_a ~dst:addr_b ~service:"health" (fun r -> ok := Some r);
  Engine.run eng;
  Alcotest.(check (option bool)) "pong" (Some true) !ok

let test_rpc_ping_down_host () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve_ping ep_b ~service:"health";
  Node.set_up b false;
  let ok = ref None in
  Rpc.ping ep_a ~timeout:(Time.ms 300) ~dst:addr_b ~service:"health" (fun r ->
      ok := Some r);
  Engine.run eng;
  Alcotest.(check (option bool)) "no pong" (Some false) !ok

let test_rpc_concurrent_calls () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve ep_b ~service:"echo" (fun ~src:_ body ~reply -> reply body);
  let got = ref [] in
  for i = 1 to 10 do
    Rpc.call ep_a ~dst:addr_b ~service:"echo" (Echo (string_of_int i))
      (function
      | Ok (Echo s) -> got := s :: !got
      | _ -> ())
  done;
  Engine.run eng;
  checki "all answered" 10 (List.length !got)

let test_rpc_unknown_service_counted () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a in
  (* b has an endpoint that serves nothing. *)
  ignore (Rpc.endpoint b : Rpc.endpoint);
  let r1 = ref None and r2 = ref None in
  let (), events =
    Telemetry.Control.capture (fun () ->
        Rpc.call ep_a ~timeout:(Time.ms 100) ~dst:addr_b ~service:"nope" (Echo "x")
          (fun r -> r1 := Some r);
        Rpc.call ep_a ~timeout:(Time.ms 100) ~dst:addr_b ~service:"nope" (Echo "y")
          (fun r -> r2 := Some r);
        Engine.run eng)
  in
  (match (!r1, !r2) with
  | Some (Error `Timeout), Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected both calls to time out");
  Alcotest.(check (list (pair string int)))
    "drops counted per service" [ ("nope", 1); ("nope", 2) ]
    (List.filter_map
       (fun (e : Telemetry.Bus.entry) ->
         match e.event with
         | Telemetry.Event.Rpc_unknown_service { node = "b"; service; count } ->
             Some (service, count)
         | _ -> None)
       events)

let test_rpc_retry_transient_outage () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a and ep_b = Rpc.endpoint b in
  Rpc.serve ep_b ~service:"echo" (fun ~src:_ body ~reply -> reply body);
  Node.set_up b false;
  ignore (Engine.schedule_after eng (Time.ms 300) (fun () -> Node.set_up b true));
  let got = ref None in
  (* Attempt 1 at t=0 times out at 100 ms; backoff 50 ms (±20%) puts
     attempt 2 around 150 ms, timing out around 250 ms; backoff 100 ms
     (±20%) lands attempt 3 past 300 ms, when [b] is back up. *)
  Rpc.call ep_a ~timeout:(Time.ms 100) ~retry:true ~dst:addr_b
    ~service:"echo" (Echo "back") (fun r -> got := Some r);
  Engine.run eng;
  match !got with
  | Some (Ok (Echo "back")) -> ()
  | _ -> Alcotest.fail "expected a later attempt to succeed"

let test_rpc_retry_exhausted () =
  let eng, _, a, b, _, _, addr_b = two_nodes () in
  let ep_a = Rpc.endpoint a in
  Node.set_up b false;
  let got = ref None in
  Rpc.call ep_a ~timeout:(Time.ms 100) ~retry:true ~dst:addr_b
    ~service:"echo" (Echo "x") (fun r -> got := Some r);
  Engine.run eng;
  match !got with
  | Some (Error (`Exhausted 3)) -> ()
  | _ -> Alcotest.fail "expected `Exhausted 3 after the budget is spent"

(* --- Properties -------------------------------------------------------- *)

let prop_prefix_contains_base =
  QCheck.Test.make ~name:"prefix contains its base and hosts" ~count:500
    QCheck.(pair (int_bound 0xFFFFFFF) (int_range 8 32))
    (fun (raw, len) ->
      let p = Addr.prefix (Addr.of_int raw) len in
      Addr.contains p p.Addr.base
      &&
      let size = Addr.prefix_size p in
      let k = min (size - 1) 3 in
      Addr.contains p (Addr.host_in p k))

(* The list-based lookup the hashed forwarding tables replaced, kept as
   the reference: a direct neighbour first (the newest interface wins),
   then the longest matching prefix (the newest route wins among equal
   prefixes), whose gateway must itself be a neighbour — a gateway with
   no interface drops the packet, with no fallback to a shorter
   prefix. *)
let rec ref_iface_to a = function
  | [] -> None
  | (i : Node.iface) :: rest ->
      if Addr.equal i.remote a then Some i else ref_iface_to a rest

let rec ref_route_gw dst = function
  | [] -> None
  | (p, gw) :: rest ->
      if Addr.contains p dst then Some gw else ref_route_gw dst rest

let ref_iface_for ifs routes dst =
  match ref_iface_to dst ifs with
  | Some _ as found -> found
  | None -> (
      match ref_route_gw dst routes with
      | None -> None
      | Some gw -> ref_iface_to gw ifs)

(* Addresses the router's interfaces, routes and destinations draw from,
   dense enough that prefixes overlap, repeat and shadow each other.
   The last five are the router's own interface addresses. *)
let fwd_pool =
  Array.map Addr.of_string
    [|
      "10.0.0.1"; "10.0.0.2"; "10.0.0.6"; "10.0.1.9"; "10.0.1.10";
      "10.1.0.1"; "172.16.0.1"; "192.168.7.3"; "0.0.0.0"; "255.255.255.255";
      "10.9.0.1"; "10.9.1.1"; "10.9.2.1"; "10.9.3.1"; "10.9.4.1";
    |]

let fwd_lens = [| 0; 8; 16; 24; 30; 30; 32; 32 |]

type fwd_op =
  | Route of int * int * int (* length index, base, gateway *)
  | Remove_address of int
  | Add_address of int
  | Attach of int * int (* a new link: local, remote *)
  | Send of Addr.t (* sent by the router itself *)
  | Forward of Addr.t * int (* received by the router with this TTL *)

let pp_fwd_op = function
  | Route (l, b, g) -> Printf.sprintf "route %d/%d via %d" b fwd_lens.(l) g
  | Remove_address a -> Printf.sprintf "remove %d" a
  | Add_address a -> Printf.sprintf "add %d" a
  | Attach (l, r) -> Printf.sprintf "attach %d-%d" l r
  | Send d -> Printf.sprintf "send %s" (Addr.to_string d)
  | Forward (d, ttl) -> Printf.sprintf "forward %s ttl %d" (Addr.to_string d) ttl

(* Sends are interleaved with every kind of table change, so a decision
   cached before a change and not dropped by it would be caught. *)
let fwd_case =
  let open QCheck.Gen in
  let idx = int_bound (Array.length fwd_pool - 1) in
  let dst =
    frequency
      [ (3, map (fun i -> fwd_pool.(i)) idx); (1, map Addr.of_int (int_bound 0x3FFFFFFF)) ]
  in
  let op =
    frequency
      [
        ( 3,
          map3
            (fun l b g -> Route (l, b, g))
            (int_bound (Array.length fwd_lens - 1))
            idx idx );
        (1, map (fun a -> Remove_address a) idx);
        (1, map (fun a -> Add_address a) idx);
        (* Mostly on an interface address the router already has, so
           the attach itself is what changes its decisions. *)
        (1, map2 (fun l r -> Attach (l, r)) (frequency [ (3, int_range 10 14); (1, idx) ]) idx);
        (5, map (fun d -> Send d) dst);
        (3, map2 (fun d ttl -> Forward (d, ttl)) dst (int_range 1 2));
      ]
  in
  (* Five links whose remote ends repeat, so a remote can have two
     interfaces. *)
  pair (list_repeat 5 (int_bound 5)) (list_size (1 -- 60) op)

(* A host outside the pool sits behind the router's first link and
   hands it the packets it forwards. *)
let fwd_host_addr = Addr.of_string "200.0.0.1"

let prop_forwarding_matches_lists =
  QCheck.Test.make ~name:"hashed forwarding = list-based lookup" ~count:300
    (QCheck.make fwd_case ~print:(fun (remotes, ops) ->
         String.concat "; "
           (List.map string_of_int remotes @ List.map pp_fwd_op ops)))
    (fun (remotes, ops) ->
      let eng = Engine.create () in
      let r = Node.create eng ~forwarding:true "r" in
      (* The router holds side A of every link, so a delivery to side B
         is a packet it sent. *)
      let sent = ref [] in
      let attach local remote =
        let l = Link.create eng () in
        Node.attach r l Link.A ~local ~remote;
        Link.tap l (fun side _ -> if side = Link.B then sent := l :: !sent);
        l
      in
      let links = List.mapi (fun i remote -> attach fwd_pool.(10 + i) fwd_pool.(remote)) remotes in
      let h = Node.create eng "h" in
      Node.attach h (List.hd links) Link.B ~local:fwd_host_addr ~remote:fwd_pool.(10);
      Node.add_route h (Addr.prefix (Addr.of_string "0.0.0.0") 0) fwd_pool.(10);
      let routes = ref [] in
      (* Runs [inject] and the events it causes; checks the links the
         router sent on and its counters against the lists. *)
      let hop ~dst ~ttl inject =
        let unrouted0 = Node.unrouted_packets r
        and unclaimed0 = Node.unclaimed_packets r in
        sent := [];
        inject ();
        Engine.run eng;
        let unrouted = Node.unrouted_packets r - unrouted0
        and unclaimed = Node.unclaimed_packets r - unclaimed0 in
        if List.mem dst (Node.addresses r) then !sent = [] && unrouted = 0 && unclaimed = 1
        else if ttl = 1 then
          (* Expired in transit: dropped before the route lookup. *)
          !sent = [] && unrouted = 0 && unclaimed = 0
        else
          unclaimed = 0
          &&
          match ref_iface_for (Node.ifaces r) !routes dst with
          | None -> !sent = [] && unrouted = 1
          | Some i -> (
              unrouted = 0 && match !sent with [ l ] -> l == i.Node.link | _ -> false)
      in
      List.for_all
        (function
          | Route (l, b, g) ->
              let p = Addr.prefix fwd_pool.(b) fwd_lens.(l) in
              Node.add_route r p fwd_pool.(g);
              routes :=
                List.sort
                  (fun (p, _) (q, _) -> Int.compare q.Addr.len p.Addr.len)
                  ((p, fwd_pool.(g)) :: !routes);
              true
          | Remove_address a ->
              Node.remove_address r fwd_pool.(a);
              true
          | Add_address a ->
              Node.add_address r fwd_pool.(a);
              true
          | Attach (l, rm) ->
              ignore (attach fwd_pool.(l) fwd_pool.(rm));
              true
          | Send dst ->
              hop ~dst ~ttl:64 (fun () ->
                  Node.send r (Packet.make ~src:fwd_pool.(10) ~dst ~size:64 (Packet.Raw "x")))
          | Forward (dst, ttl) ->
              hop ~dst ~ttl (fun () ->
                  Node.send h
                    (Packet.make ~ttl ~src:fwd_host_addr ~dst ~size:64 (Packet.Raw "x"))))
        ops)

(* The closure-per-packet link that per-direction rings, and then engine
   fifos, replaced, kept as the reference: every transmit schedules its
   own delivery closure, which drops the packet if the link failed since
   (its failure epoch moved). *)
module Ref_link = struct
  type endpoint = {
    mutable deliver : (Packet.t -> unit) option;
    mutable busy_until : Time.t;
  }

  type t = {
    eng : Engine.t;
    a : endpoint;
    b : endpoint;
    mutable prop_delay : Time.span;
    bandwidth_bps : int;
    mutable loss : float;
    mutable up : bool;
    mutable epoch : int;
    mutable taps : (Link.side -> Packet.t -> unit) list;
    rng : Rng.t;
    mutable delivered : int;
    mutable dropped : int;
  }

  let create eng ~delay ~bandwidth_bps =
    {
      eng;
      a = { deliver = None; busy_until = Time.zero };
      b = { deliver = None; busy_until = Time.zero };
      prop_delay = delay;
      bandwidth_bps;
      loss = 0.0;
      up = true;
      epoch = 0;
      taps = [];
      rng = Rng.split (Engine.rng eng);
      delivered = 0;
      dropped = 0;
    }

  let endpoint t = function Link.A -> t.a | Link.B -> t.b
  let other = function Link.A -> Link.B | Link.B -> Link.A
  let set_receiver t side f = (endpoint t side).deliver <- Some f

  let transmit t ~from pkt =
    if (not t.up) || Rng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
    else begin
      let sender = endpoint t from in
      let start = max (Engine.now t.eng) sender.busy_until in
      let finish = Time.add start (pkt.Packet.size * 8 * 1_000_000_000 / t.bandwidth_bps) in
      sender.busy_until <- finish;
      let epoch = t.epoch and dst_side = other from in
      ignore
        (Engine.schedule_at t.eng ~label:"net.deliver" (Time.add finish t.prop_delay)
           (fun () ->
             if t.up && t.epoch = epoch then begin
               t.delivered <- t.delivered + 1;
               Option.iter (fun f -> f pkt) (endpoint t dst_side).deliver;
               List.iter (fun tap -> tap dst_side pkt) t.taps
             end
             else t.dropped <- t.dropped + 1))
    end

  let set_up t flag =
    if t.up && not flag then begin
      t.epoch <- t.epoch + 1;
      t.a.busy_until <- Engine.now t.eng;
      t.b.busy_until <- Engine.now t.eng
    end;
    t.up <- flag

  let fail_for t span =
    set_up t false;
    ignore (Engine.schedule_after t.eng ~label:"net.link_heal" span (fun () -> set_up t true))
end

(* What a link script does to either link. *)
type link_under_test = {
  transmit : from:Link.side -> Packet.t -> unit;
  set_up : bool -> unit;
  fail_for : Time.span -> unit;
  set_delay : Time.span -> unit;
  set_loss : float -> unit;
  stats : unit -> int * int;
}

let link_delay = Time.us 200
let link_bandwidth = 10_000_000 (* a 1500-byte packet serializes in 1.2 ms *)

let real_link eng ~receive ~tap =
  let l = Link.create eng ~delay:link_delay ~bandwidth_bps:link_bandwidth () in
  Link.set_receiver l Link.A (receive Link.A);
  Link.set_receiver l Link.B (receive Link.B);
  Link.tap l tap;
  {
    transmit = Link.transmit l;
    set_up = Link.set_up l;
    fail_for = Link.fail_for l;
    set_delay = Link.set_delay l;
    set_loss = Link.set_loss l;
    stats =
      (fun () -> (Link.delivered_packets l, Link.dropped_packets l));
  }

let ref_link eng ~receive ~tap =
  let l = Ref_link.create eng ~delay:link_delay ~bandwidth_bps:link_bandwidth in
  Ref_link.set_receiver l Link.A (receive Link.A);
  Ref_link.set_receiver l Link.B (receive Link.B);
  l.taps <- [ tap ];
  {
    transmit = Ref_link.transmit l;
    set_up = Ref_link.set_up l;
    fail_for = Ref_link.fail_for l;
    set_delay = (fun d -> l.prop_delay <- d);
    set_loss = (fun p -> l.loss <- p);
    stats = (fun () -> (l.delivered, l.dropped));
  }

type link_op =
  | Tx of Link.side * int (* wire size *)
  | Set_up of bool
  | Fail_for of int (* us *)
  | Set_loss of float
  | Set_delay of int (* us *)

let pp_link_op = function
  | Tx (side, size) -> Printf.sprintf "tx %s %d" (if side = Link.A then "A" else "B") size
  | Set_up up -> Printf.sprintf "up %b" up
  | Fail_for us -> Printf.sprintf "fail_for %dus" us
  | Set_loss p -> Printf.sprintf "loss %.1f" p
  | Set_delay us -> Printf.sprintf "delay %dus" us

(* Ops a few hundred microseconds apart, against serialization times of
   32 us to 1.2 ms and a 200 us delay: packets queue and overlap in both
   directions, and failures and delay changes land mid-flight. Delays
   both rise and fall. *)
let link_script =
  let open QCheck.Gen in
  let side = map (fun a -> if a then Link.A else Link.B) bool in
  let op =
    frequency
      [
        (12, map2 (fun s n -> Tx (s, n)) side (int_range 40 1500));
        (1, map (fun up -> Set_up up) (frequencyl [ (2, true); (1, false) ]));
        (1, map (fun us -> Fail_for us) (int_range 1 3000));
        (1, map (fun p -> Set_loss p) (oneofl [ 0.0; 0.0; 0.2; 0.5 ]));
        (1, map (fun us -> Set_delay us) (oneofl [ 20; 100; 200; 500; 2000 ]));
      ]
  in
  list_size (1 -- 80) (pair (int_bound 400) op)

(* Runs a script on a fresh engine. Deliveries and tap calls are logged
   as (instant, arriving side, op index). [pkts.(i)] is what op [i]
   transmits, shared by both runs so op indices compare. *)
let run_link_script make script pkts =
  let eng = Engine.create ~seed:7 () in
  let delivered = ref [] and tapped = ref [] in
  let rec op_index p i = if pkts.(i) == p then i else op_index p (i + 1) in
  let log r side p = r := (Engine.now eng, side, op_index p 0) :: !r in
  let l = make eng ~receive:(log delivered) ~tap:(log tapped) in
  let at = ref Time.zero in
  List.iteri
    (fun i (gap, op) ->
      at := Time.add !at (Time.us gap);
      ignore
        (Engine.schedule_at eng !at (fun () ->
             match op with
             | Tx (from, _) -> l.transmit ~from pkts.(i)
             | Set_up up -> l.set_up up
             | Fail_for us -> l.fail_for (Time.us us)
             | Set_loss p -> l.set_loss p
             | Set_delay us -> l.set_delay (Time.us us))))
    script;
  Engine.run eng;
  (List.rev !delivered, List.rev !tapped, l.stats ())

let prop_link_matches_reference =
  QCheck.Test.make ~name:"ring link = closure-per-packet link" ~count:1000
    (QCheck.make link_script ~print:(fun script ->
         String.concat "; "
           (List.map (fun (gap, op) -> Printf.sprintf "+%dus %s" gap (pp_link_op op)) script)))
    (fun script ->
      let pkts =
        Array.of_list
          (List.map
             (fun (_, op) ->
               let size = match op with Tx (_, n) -> n | _ -> 1 in
               Packet.make ~src:(Addr.of_int 1) ~dst:(Addr.of_int 2) ~size (Packet.Raw ""))
             script)
      in
      run_link_script real_link script pkts = run_link_script ref_link script pkts)

let prop_addr_string_roundtrip =
  QCheck.Test.make ~name:"addr to_string/of_string roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun raw ->
      let a = Addr.of_int raw in
      Addr.equal a (Addr.of_string (Addr.to_string a)))

let () =
  Alcotest.run "netsim"
    [
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "of_octets" `Quick test_addr_of_octets;
          Alcotest.test_case "malformed rejected" `Quick test_addr_malformed;
          Alcotest.test_case "succ and offset" `Quick test_addr_succ_offset;
          Alcotest.test_case "prefix canonical" `Quick test_prefix_canonical;
          Alcotest.test_case "prefix contains" `Quick test_prefix_contains;
          Alcotest.test_case "prefix subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "host_in" `Quick test_prefix_host_in;
          Alcotest.test_case "bad length" `Quick test_prefix_bad_len;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery" `Quick test_link_delivery;
          Alcotest.test_case "serialization delay" `Quick
            test_link_serialization_delay;
          Alcotest.test_case "queueing" `Quick test_link_queueing;
          Alcotest.test_case "down drops" `Quick test_link_down_drops;
          Alcotest.test_case "failure kills in-flight" `Quick
            test_link_failure_kills_in_flight;
          Alcotest.test_case "fail_for recovers" `Quick test_link_fail_for;
          Alcotest.test_case "random loss" `Quick test_link_loss;
          Alcotest.test_case "tap and stats" `Quick test_link_tap_and_stats;
          Alcotest.test_case "forwarded hop allocation" `Quick
            test_forwarded_hop_allocation;
        ] );
      ( "node",
        [
          Alcotest.test_case "down drops" `Quick test_node_down_silently_drops;
          Alcotest.test_case "loopback" `Quick test_node_loopback;
          Alcotest.test_case "forwarding" `Quick test_forwarding_three_hop;
          Alcotest.test_case "no route counted" `Quick test_no_route_counted;
          Alcotest.test_case "longest prefix match" `Quick
            test_longest_prefix_match;
          Alcotest.test_case "unclaimed counted" `Quick test_unclaimed_counted;
        ] );
      ( "network",
        [ Alcotest.test_case "registry" `Quick test_network_registry ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "timeout on dead server" `Quick
            test_rpc_timeout_on_dead_server;
          Alcotest.test_case "timeout on unknown service" `Quick
            test_rpc_timeout_unknown_service;
          Alcotest.test_case "delayed reply" `Quick test_rpc_delayed_reply;
          Alcotest.test_case "ping" `Quick test_rpc_ping;
          Alcotest.test_case "ping down host" `Quick test_rpc_ping_down_host;
          Alcotest.test_case "concurrent calls" `Quick
            test_rpc_concurrent_calls;
          Alcotest.test_case "unknown service counted" `Quick
            test_rpc_unknown_service_counted;
          Alcotest.test_case "retry survives transient outage" `Quick
            test_rpc_retry_transient_outage;
          Alcotest.test_case "retry budget exhausted" `Quick
            test_rpc_retry_exhausted;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_prefix_contains_base;
            prop_addr_string_roundtrip;
            prop_forwarding_matches_lists;
            prop_link_matches_reference;
          ] );
    ]
