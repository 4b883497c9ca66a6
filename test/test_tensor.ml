(* End-to-end tests for TENSOR: key codecs, the replication machinery's
   safety invariant (no ACK escapes before its message is durable), NSR
   migration across all Table 1 failure classes with zero link downtime,
   storage trimming, and the ablations. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pfx s = Addr.prefix_of_string s
let vip1 = Addr.of_string "203.0.113.10"

(* --- Keys ------------------------------------------------------------------ *)

let sample_meta =
  {
    Tensor.Keys.epoch = 0;
    vrf = "v0";
    local_addr = vip1;
    local_port = 49152;
    peer_addr = Addr.of_string "198.51.100.7";
    peer_port = 179;
    local_asn = 64900;
    hold_time = 90;
    as4 = true;
    iss = 123456;
    irs = 654321;
    mss = 1460;
    rcv_wnd = 400_000;
    peer_open_raw =
      Bgp.Msg.encode
        (Bgp.Msg.Open
           {
             version = 4;
             asn = 65010;
             hold_time = 90;
             router_id = Addr.of_string "9.9.9.9";
             capabilities = [ Bgp.Msg.Cap_route_refresh ];
           });
    peer_supports_gr = true;
    peer_gr_restart_time = 120;
  }

let test_keys_meta_roundtrip () =
  match Tensor.Keys.decode_meta (Tensor.Keys.encode_meta sample_meta) with
  | Ok m -> checkb "meta roundtrip" true (m = sample_meta)
  | Error e -> Alcotest.failf "meta decode: %s" e

let test_keys_in_record_roundtrip () =
  let raw = Bgp.Msg.encode Bgp.Msg.Keepalive in
  match
    Tensor.Keys.decode_in_record (Tensor.Keys.encode_in_record ~ack:999 ~raw)
  with
  | Ok (ack, raw') -> checkb "in record" true (ack = 999 && raw' = raw)
  | Error e -> Alcotest.failf "in record decode: %s" e

let test_keys_rib_roundtrip () =
  let src =
    {
      Bgp.Rib.key = "v0/1.2.3.4";
      peer_asn = 65010;
      peer_addr = Addr.of_string "1.2.3.4";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let attrs =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 ] ]
      ~med:5
      ~communities:[ (65010, 300) ]
      ~next_hop:(Addr.of_string "1.2.3.4") ()
  in
  let p = pfx "100.1.2.0/24" in
  match
    Tensor.Keys.decode_rib_entry (Tensor.Keys.encode_rib_entry src p attrs)
  with
  | Ok (src', p', attrs') ->
      checkb "rib roundtrip" true
        (src' = src && Addr.equal_prefix p p' && Bgp.Attrs.equal attrs attrs')
  | Error e -> Alcotest.failf "rib decode: %s" e

let test_keys_parsers () =
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "in key parse" true
    (Tensor.Keys.seq_of_in_key cid (Tensor.Keys.in_key cid 42) = Some 42);
  checkb "out key parse" true
    (Tensor.Keys.offset_of_out_key cid (Tensor.Keys.out_key cid 1234) = Some 1234);
  let rk = Tensor.Keys.rib_key ~service:"svc1" ~vrf:"v0" (pfx "10.0.0.0/8") in
  match Tensor.Keys.vrf_prefix_of_rib_key ~service:"svc1" rk with
  | Some (vrf, p) ->
      checkb "rib key parse" true
        (vrf = "v0" && Addr.equal_prefix p (pfx "10.0.0.0/8"))
  | None -> Alcotest.fail "rib key parse"

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex/unhex roundtrip" ~count:200 QCheck.string
    (fun s -> Tensor.Keys.unhex (Tensor.Keys.hex s) = Ok s)

let prop_meta_roundtrip =
  QCheck.Test.make ~name:"meta roundtrip with arbitrary numbers" ~count:100
    QCheck.(quad (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 65535) bool)
    (fun (iss, irs, port, gr) ->
      let m =
        { sample_meta with Tensor.Keys.iss; irs; local_port = port;
          peer_supports_gr = gr }
      in
      Tensor.Keys.decode_meta (Tensor.Keys.encode_meta m) = Ok m)

(* --- Codec byte-equality oracle ---------------------------------------------

   The store's cost model charges per value byte and recovery decodes
   what earlier versions wrote, so every key and record must stay
   byte-identical to the original Printf-based formatting. These are
   those original implementations, kept as the reference. *)

module Ref = struct
  let addr_to_string a =
    let t = Addr.to_int a in
    Printf.sprintf "%d.%d.%d.%d"
      ((t lsr 24) land 0xFF)
      ((t lsr 16) land 0xFF)
      ((t lsr 8) land 0xFF)
      (t land 0xFF)

  let prefix_to_string (p : Addr.prefix) =
    Printf.sprintf "%s/%d" (addr_to_string p.Addr.base) p.Addr.len

  let hex s =
    let b = Buffer.create (2 * String.length s) in
    String.iter
      (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
      s;
    Buffer.contents b

  let epoch_cid cid epoch =
    if epoch = 0 then cid else Printf.sprintf "%s@%d" cid epoch

  let in_key cid seq = Printf.sprintf "in|%s|%012d" cid seq
  let out_key cid off = Printf.sprintf "out|%s|%012d" cid off

  let rib_key ~service ~vrf prefix =
    Printf.sprintf "rib|%s|%s|%s" service vrf (prefix_to_string prefix)

  let encode_rib_entry (src : Bgp.Rib.source) prefix attrs =
    let update =
      Bgp.Msg.Update { withdrawn = []; attrs = Some attrs; nlri = [ prefix ] }
    in
    String.concat ";"
      [
        "sk=" ^ src.Bgp.Rib.key;
        "pasn=" ^ string_of_int src.Bgp.Rib.peer_asn;
        "paddr=" ^ addr_to_string src.Bgp.Rib.peer_addr;
        "rid=" ^ addr_to_string src.Bgp.Rib.router_id;
        "ebgp=" ^ (if src.Bgp.Rib.ebgp then "1" else "0");
        "u=" ^ hex (Bgp.Msg.encode update);
      ]
end

let gen_addr = QCheck.Gen.(map Addr.of_int (int_bound 0xFFFFFFFF))

let gen_prefix =
  QCheck.Gen.(map2 (fun a len -> Addr.prefix a len) gen_addr (int_bound 32))

(* Session keys look like "v0/10.0.0.2"; the record's field syntax has
   no escaping, so a key never contains ';'. *)
let gen_source_key =
  QCheck.Gen.(
    string_size
      ~gen:
        (oneof
           [ char_range 'a' 'z'; char_range '0' '9'; oneofl [ '/'; '.'; '|'; '-' ] ])
      (int_bound 24))

let gen_source =
  QCheck.Gen.(
    map
      (fun (key, peer_asn, (peer_addr, router_id), ebgp) ->
        { Bgp.Rib.key; peer_asn; peer_addr; router_id; ebgp })
      (quad gen_source_key (int_bound 0xFFFFFFFF) (pair gen_addr gen_addr) bool))

let gen_u16 = QCheck.Gen.int_bound 0xFFFF
let gen_u32 = QCheck.Gen.int_bound 0xFFFFFFFF

let gen_attrs =
  QCheck.Gen.(
    let segment =
      map2
        (fun set asns -> if set then Bgp.Attrs.Set asns else Bgp.Attrs.Seq asns)
        bool
        (list_size (int_range 1 8) gen_u32)
    in
    map
      (fun ((origin, as_path, next_hop), (med, local_pref), (atomic, communities)) ->
        Bgp.Attrs.make ~origin ~as_path ?med ?local_pref
          ~atomic_aggregate:atomic ~communities ~next_hop ())
      (triple
         (triple
            (oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ])
            (list_size (int_bound 6) segment)
            gen_addr)
         (pair (opt gen_u32) (opt gen_u32))
         (pair bool (list_size (int_bound 12) (pair gen_u16 gen_u16)))))

let arb_route =
  QCheck.make
    ~print:(fun (src, p, a) ->
      Format.asprintf "%s %s %a" src.Bgp.Rib.key (Ref.prefix_to_string p)
        Bgp.Attrs.pp a)
    QCheck.Gen.(triple gen_source gen_prefix gen_attrs)

let prop_codec_matches_printf =
  QCheck.Test.make ~name:"keys and records byte-equal the Printf originals"
    ~count:300 arb_route (fun (src, p, attrs) ->
      let service = src.Bgp.Rib.key and vrf = "v0" in
      String.equal (Addr.to_string p.Addr.base) (Ref.addr_to_string p.Addr.base)
      && String.equal (Addr.prefix_to_string p) (Ref.prefix_to_string p)
      && String.equal
           (Tensor.Keys.rib_key ~service ~vrf p)
           (Ref.rib_key ~service ~vrf p)
      && String.equal
           (Tensor.Keys.encode_rib_entry src p attrs)
           (Ref.encode_rib_entry src p attrs))

let prop_hex_matches_printf =
  QCheck.Test.make ~name:"hex byte-equals the Printf original" ~count:200
    QCheck.string (fun s -> String.equal (Tensor.Keys.hex s) (Ref.hex s))

let prop_stream_keys_match_printf =
  QCheck.Test.make ~name:"in/out/epoch keys byte-equal the Printf originals"
    ~count:300
    QCheck.(
      triple printable_string
        (make ~print:string_of_int
           Gen.(oneof [ small_signed_int; int_bound 10_000_000_000_000; int ]))
        small_nat)
    (fun (cid, n, epoch) ->
      String.equal (Tensor.Keys.in_key cid n) (Ref.in_key cid n)
      && String.equal (Tensor.Keys.out_key cid n) (Ref.out_key cid n)
      && String.equal
           (Tensor.Keys.epoch_cid cid epoch)
           (Ref.epoch_cid cid epoch))

let test_keys_padding_edges () =
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "in_key %d" n) (Ref.in_key "c" n)
        (Tensor.Keys.in_key "c" n))
    [ 0; 1; -1; 999_999_999_999; 1_000_000_000_000; -99_999_999_999;
      -100_000_000_000; max_int; min_int ]

(* --- Cached record encoder ----------------------------------------------------- *)

let roundtrips (src, p, attrs) record =
  match Tensor.Keys.decode_rib_entry record with
  | Ok (src', p', attrs') ->
      src' = src && Addr.equal_prefix p p' && Bgp.Attrs.equal attrs attrs'
  | Error _ -> false

(* A physically distinct copy: structurally equal, so the record must
   not change, but the encoder's physical hit test must miss. *)
let copy_attrs (a : Bgp.Attrs.t) = { a with Bgp.Attrs.med = a.Bgp.Attrs.med }

let prop_cached_encoder =
  QCheck.Test.make ~name:"cached encoder equals encode_rib_entry" ~count:100
    QCheck.(
      make
        Gen.(
          quad (pair gen_source gen_source) (pair gen_attrs gen_attrs)
            (list_size (int_range 1 40)
               (quad bool bool bool gen_prefix))
            unit))
    (fun ((s1, s2), (a1, a2), steps, ()) ->
      (* One encoder fed a mix of repeats (hits), alternating sources and
         attribute sets, and equal-but-distinct attribute copies. *)
      let enc = Tensor.Keys.rib_encoder () in
      List.for_all
        (fun (second_src, second_attrs, copy, p) ->
          let src = if second_src then s2 else s1 in
          let attrs = if second_attrs then a2 else a1 in
          let attrs = if copy then copy_attrs attrs else attrs in
          let record = Tensor.Keys.encode_rib_entry_with enc src p attrs in
          String.equal record (Tensor.Keys.encode_rib_entry src p attrs)
          && roundtrips (src, p, attrs) record)
        steps)

let test_cached_encoder_invalidation () =
  let src n =
    {
      Bgp.Rib.key = Printf.sprintf "v0/10.0.0.%d" n;
      peer_asn = 65000 + n;
      peer_addr = Addr.of_octets 10 0 0 n;
      router_id = Addr.of_octets 9 9 9 n;
      ebgp = n mod 2 = 0;
    }
  in
  let s1 = src 1 and s2 = src 2 in
  let a =
    Bgp.Attrs.make ~as_path:[ Bgp.Attrs.Seq [ 65001; 7018 ] ] ~med:5
      ~next_hop:(Addr.of_string "10.0.0.1") ()
  in
  let a' = copy_attrs a in
  checkb "copy is physically distinct" true (a != a' && Bgp.Attrs.equal a a');
  let b = Bgp.Attrs.with_med a (Some 6) in
  let enc = Tensor.Keys.rib_encoder () in
  List.iteri
    (fun i (src, attrs, p) ->
      let p = pfx p in
      let got = Tensor.Keys.encode_rib_entry_with enc src p attrs in
      Alcotest.(check string)
        (Printf.sprintf "step %d" i)
        (Ref.encode_rib_entry src p attrs)
        got;
      checkb (Printf.sprintf "step %d roundtrips" i) true
        (roundtrips (src, p, attrs) got))
    [
      (s1, a, "100.0.0.0/24");
      (s1, a, "100.0.1.0/24") (* hit *);
      (s1, a, "0.0.0.0/0") (* hit, shorter NLRI *);
      (s1, a, "100.1.2.3/32") (* hit, longer NLRI *);
      (s2, a, "100.0.2.0/24") (* source changed *);
      (s1, a, "100.0.3.0/24") (* and back *);
      (s1, a', "100.0.4.0/24") (* equal attributes, distinct value *);
      (s1, b, "100.0.5.0/24") (* different attributes *);
      (s2, a', "100.0.6.0/22");
      (s2, a, "100.0.7.0/25");
    ]

let test_unhex_strict () =
  let bad = Error "bad hex" in
  List.iter
    (fun s ->
      checkb (Printf.sprintf "unhex %S rejected" s) true
        (Tensor.Keys.unhex s = bad))
    [ "f_"; "_f"; "0x"; " 1"; "+1"; "-1"; "g0"; "0G"; "ab_c"; "\x00\x00" ];
  checkb "odd length" true (Tensor.Keys.unhex "abc" = Error "odd hex length");
  checkb "empty" true (Tensor.Keys.unhex "" = Ok "");
  checkb "either case" true
    (Tensor.Keys.unhex "00fFaB7e" = Ok "\x00\xff\xab\x7e")

(* --- Full deployment helpers ---------------------------------------------- *)

type world = {
  dep : Tensor.Deploy.t;
  peer : Tensor.Deploy.peer_as;
  peer_handle : Bgp.Speaker.peer;
  svc : Tensor.Deploy.service;
  peer_link : Link.t;
}

let make_world ?(replicate = true) ?(ack_hold = true) ?seed () =
  let dep = Tensor.Deploy.build ?seed () in
  let peer = Tensor.Deploy.add_peer_as dep ~asn:65010 "peerAS" in
  let peer_handle =
    Tensor.Deploy.peer_expects peer ~vrf:"v0" ~vip:vip1 ~local_asn:64900
  in
  let svc =
    Tensor.Deploy.deploy_service dep ~replicate ~ack_hold ~id:"svc1"
      ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v0" ~vip:vip1
          ~peer_addr:peer.Tensor.Deploy.pa_addr ~peer_asn:65010 ();
      ]
  in
  let peer_link =
    match Network.link_between dep.Tensor.Deploy.net dep.Tensor.Deploy.fabric
            peer.Tensor.Deploy.pa_node with
    | Some l -> l
    | None -> Alcotest.fail "no peer link"
  in
  { dep; peer; peer_handle; svc; peer_link }

let eng w = w.dep.Tensor.Deploy.eng

let establish w =
  checkb "service established" true
    (Tensor.Deploy.wait_established w.dep w.svc ());
  Engine.run_for (eng w) (Time.sec 2)

(* Watch the peer's view: session drops and RIB losses both count as
   downtime. *)
let watch_peer_continuity w =
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down w.peer_handle (fun _ -> incr drops);
  drops

let peer_rib w = Bgp.Speaker.rib w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"

(* --- Establishment and propagation ------------------------------------------ *)

let test_deployment_establishes () =
  let w = make_world () in
  establish w;
  checkb "peer side established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established)

let test_routes_propagate_both_ways () =
  let w = make_world () in
  establish w;
  (* Peer announces; TENSOR announces. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 50)
  | None -> Alcotest.fail "no speaker");
  Engine.run_for (eng w) (Time.sec 10);
  checki "tensor learned peer routes" 100
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0" - 50);
  checki "peer learned tensor routes" 50 (Bgp.Rib.size (peer_rib w) - 100)

let test_meta_written_to_store () =
  let w = make_world () in
  establish w;
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  checkb "meta record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.meta_key cid)
    <> None);
  checkb "bfd record exists" true
    (Store.Server.peek w.dep.Tensor.Deploy.store_server
       (Tensor.Keys.bfd_key cid)
    <> None)

(* --- The NSR safety invariant ------------------------------------------------ *)

(* No TCP segment from the service may carry an ACK beyond the replicated
   watermark in the store. This is THE correctness property of §3.1.1. *)
let watch_ack_invariant w =
  let violations = ref 0 in
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  Link.tap w.peer_link (fun _side pkt ->
      match pkt.Packet.payload with
      | Tcp.Segment.Tcp seg
        when Addr.equal pkt.Packet.src vip1
             && seg.Tcp.Segment.flags.Tcp.Segment.ack ->
          let durable =
            match Store.Server.peek store (Tensor.Keys.ack_key cid) with
            | Some v -> ( match int_of_string_opt v with Some a -> a | None -> 0)
            | None -> max_int (* before establishment: no constraint *)
          in
          if seg.Tcp.Segment.ack > durable then incr violations
      | _ -> ());
  violations

let test_ack_never_precedes_replication () =
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checki "tensor learned the flood" 2_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero watermark violations" 0 !violations

let test_ack_invariant_under_loss () =
  (* Packet loss forces retransmissions, duplicate ACKs and fast
     retransmits: the watermark discipline must hold through all of it. *)
  let w = make_world () in
  let violations = watch_ack_invariant w in
  establish w;
  Link.set_loss w.peer_link 0.01;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.minutes 2);
  Link.set_loss w.peer_link 0.0;
  Engine.run_for (eng w) (Time.sec 30);
  checki "flood learned despite loss" 5_000
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  checki "zero violations under loss" 0 !violations

let test_ablation_no_ack_hold_violates () =
  (* With the tcp_queue hold disabled, ACKs race ahead of replication:
     the consistency window the paper's design closes. *)
  let w = make_world ~ack_hold:false () in
  let violations = watch_ack_invariant w in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 2_000);
  Engine.run_for (eng w) (Time.sec 20);
  checkb "violations observed without the hold" true (!violations > 0)

let test_storage_bound_after_flood () =
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 5_000);
  Engine.run_for (eng w) (Time.sec 30);
  (* Steady state: in| and out| queues drained; only meta/ack/rib and a
     few stragglers remain. *)
  let store = w.dep.Tensor.Deploy.store_server in
  let cid = Tensor.Keys.conn_id ~service:"svc1" ~vrf:"v0" in
  let in_keys = Store.Server.keys_with_prefix store (Tensor.Keys.in_prefix cid) in
  let out_keys = Store.Server.keys_with_prefix store (Tensor.Keys.out_prefix cid) in
  checkb
    (Printf.sprintf "in backlog small (%d)" (List.length in_keys))
    true
    (List.length in_keys <= 2);
  let out_bytes =
    List.fold_left
      (fun acc k ->
        acc
        + match Store.Server.peek store k with
          | Some v -> String.length v
          | None -> 0)
      0 out_keys
  in
  checkb
    (Printf.sprintf "out backlog under 64KB (%d B)" out_bytes)
    true (out_bytes < 64_000);
  (* The routing-table checkpoint covers the whole flood. *)
  let rib_keys =
    Store.Server.keys_with_prefix store (Tensor.Keys.rib_prefix ~service:"svc1")
  in
  checki "rib checkpoint complete" 5_000 (List.length rib_keys)

(* --- NSR migrations ------------------------------------------------------------ *)

let run_failure_scenario ~inject ?(post_failure_span = Time.sec 30) () =
  let w = make_world () in
  establish w;
  (* Routes in both directions before the failure. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 500);
  (match Tensor.App.speaker (Tensor.Deploy.service_app w.svc) with
  | Some spk ->
      Bgp.Speaker.originate spk ~vrf:"v0"
        (Workload.Prefixes.distinct_from ~base:500_000 200)
  | None -> ());
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  checki "peer has all routes pre-failure" 700 (Bgp.Rib.size (peer_rib w));
  let t0 = Engine.now (eng w) in
  let (), orch =
    Telemetry.Control.capture ~category:Telemetry.Event.Orch (fun () ->
        inject w;
        Engine.run_for (eng w) post_failure_span)
  in
  (* Injection to TCP re-synchronization: the whole migration. *)
  let total =
    match
      List.find_opt
        (fun (e : Telemetry.Bus.entry) ->
          match e.event with Telemetry.Event.Tcp_synced _ -> true | _ -> false)
        orch
    with
    | Some e -> Time.to_sec_f (Time.diff e.at t0)
    | None -> nan
  in
  (w, drops, total)

let assert_zero_downtime (w, drops, _total) =
  checki "peer session never dropped" 0 !drops;
  checkb "peer session still established" true
    (Bgp.Speaker.peer_state w.peer_handle = Bgp.Session.Established);
  checki "peer kept every route" 700 (Bgp.Rib.size (peer_rib w));
  checki "no stale routes at peer" 0
    (Bgp.Rib.stale_count (peer_rib w)
       ~key:(Bgp.Speaker.peer_source_key w.peer_handle));
  (* The replacement instance serves the session now. *)
  checkb "service re-established on backup" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checkb "migrated off the original container" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> "svc1")

let inject kind w = Tensor.Deploy.inject_failure w.dep w.svc kind

let test_nsr_app_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario ~inject:(inject Orch.Controller.App_failure) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "app failure total %.2fs (paper 2.26)" total) true
    (total > 1.0 && total < 5.0)

let test_nsr_container_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Container_failure) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "container failure total %.2fs (paper 2.61)" total)
    true
    (total > 1.0 && total < 6.0)

let test_nsr_host_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Host_failure)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "host failure total %.2fs (paper 9.05)" total) true
    (total > 6.0 && total < 13.0)

let test_nsr_host_network_failure () =
  let ((_, _, total) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Host_network_failure)
      ~post_failure_span:(Time.sec 40) ()
  in
  assert_zero_downtime r;
  checkb (Printf.sprintf "host network total %.2fs (paper 9.17)" total) true
    (total > 6.0 && total < 13.0)

let test_updates_survive_migration () =
  (* Updates sent by the peer during the outage are not lost: TCP holds
     them (unacked) and the resumed backup receives them. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 100);
  Engine.run_for (eng w) (Time.sec 5);
  inject Orch.Controller.Container_failure w;
  (* While the primary is dead, the peer announces more routes. *)
  ignore
    (Engine.schedule_after (eng w) (Time.ms 500) (fun () ->
         Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
           (Workload.Prefixes.distinct_from ~base:200_000 150)));
  Engine.run_for (eng w) (Time.sec 40);
  checki "all routes present after migration" 250
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_double_failure_second_migration () =
  (* The replacement can itself fail and be migrated again. *)
  let ((w, drops, _) as r) =
    run_failure_scenario
      ~inject:(inject Orch.Controller.Container_failure) ()
  in
  assert_zero_downtime r;
  inject Orch.Controller.Container_failure w;
  Engine.run_for (eng w) (Time.sec 30);
  checki "still zero drops after second failure" 0 !drops;
  checkb "re-established again" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0")

let test_planned_migration_zero_downtime () =
  (* §4.4: software updates without graceful restart, frozen policies or
     downtime — freeze, drain, migrate a perfectly healthy service. *)
  let w = make_world () in
  establish w;
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct 400);
  Engine.run_for (eng w) (Time.sec 10);
  let drops = watch_peer_continuity w in
  let before = Orch.Container.id (Tensor.Deploy.service_container w.svc) in
  Tensor.Deploy.planned_migration w.dep w.svc;
  Engine.run_for (eng w) (Time.sec 30);
  checki "peer session never dropped" 0 !drops;
  checkb "service moved" true
    (Orch.Container.id (Tensor.Deploy.service_container w.svc) <> before);
  checkb "session live on the new instance" true
    (Tensor.App.session_established (Tensor.Deploy.service_app w.svc) ~vrf:"v0");
  checki "routes intact" 400 (Tensor.Deploy.service_routes w.svc ~vrf:"v0");
  (* Routing still works end to end: the peer announces more and the new
     instance learns it. *)
  Bgp.Speaker.originate w.peer.Tensor.Deploy.pa_speaker ~vrf:"v0"
    (Workload.Prefixes.distinct_from ~base:800_000 50);
  Engine.run_for (eng w) (Time.sec 5);
  checki "updates flow after planned move" 450
    (Tensor.Deploy.service_routes w.svc ~vrf:"v0")

let test_two_vrf_container_migration () =
  (* One container, two VRFs, two peering ASes (the paper's Figure 3
     container layout). A container failure must migrate both sessions
     transparently. *)
  let dep = Tensor.Deploy.build () in
  let eng = dep.Tensor.Deploy.eng in
  let p1 = Tensor.Deploy.add_peer_as dep ~asn:65021 "as21" in
  let p2 = Tensor.Deploy.add_peer_as dep ~asn:65022 "as22" in
  let vip_a = Addr.of_string "203.0.113.31" in
  let vip_b = Addr.of_string "203.0.113.32" in
  let h1 = Tensor.Deploy.peer_expects p1 ~vrf:"v1" ~vip:vip_a ~local_asn:64900 in
  let h2 = Tensor.Deploy.peer_expects p2 ~vrf:"v2" ~vip:vip_b ~local_asn:64900 in
  let svc =
    Tensor.Deploy.deploy_service dep ~id:"dualvrf" ~local_asn:64900
      [
        Tensor.App.vrf_spec ~vrf:"v1" ~vip:vip_a
          ~peer_addr:p1.Tensor.Deploy.pa_addr ~peer_asn:65021 ();
        Tensor.App.vrf_spec ~vrf:"v2" ~vip:vip_b
          ~peer_addr:p2.Tensor.Deploy.pa_addr ~peer_asn:65022 ();
      ]
  in
  checkb "both sessions up" true (Tensor.Deploy.wait_established dep svc ());
  Bgp.Speaker.originate p1.Tensor.Deploy.pa_speaker ~vrf:"v1"
    (Workload.Prefixes.distinct 100);
  Bgp.Speaker.originate p2.Tensor.Deploy.pa_speaker ~vrf:"v2"
    (Workload.Prefixes.distinct_from ~base:300_000 200);
  Engine.run_for eng (Time.sec 10);
  let drops = ref 0 in
  Bgp.Speaker.on_peer_down h1 (fun _ -> incr drops);
  Bgp.Speaker.on_peer_down h2 (fun _ -> incr drops);
  Tensor.Deploy.inject_failure dep svc Orch.Controller.Container_failure;
  Engine.run_for eng (Time.sec 30);
  checki "neither peer dropped" 0 !drops;
  checki "vrf v1 intact and isolated" 100
    (Tensor.Deploy.service_routes svc ~vrf:"v1");
  checki "vrf v2 intact and isolated" 200
    (Tensor.Deploy.service_routes svc ~vrf:"v2");
  checkb "both resumed" true
    (Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v1"
    && Tensor.App.session_established (Tensor.Deploy.service_app svc) ~vrf:"v2")

let test_baseline_without_nsr_peer_sees_outage () =
  (* Control: replication disabled = an ordinary BGP daemon in a
     container. The same container failure kills the peer's session. *)
  let w = make_world ~replicate:false () in
  establish w;
  let drops = watch_peer_continuity w in
  Orch.Container.fail (Tensor.Deploy.service_container w.svc);
  Engine.run_for (eng w) (Time.minutes 3);
  checkb "peer saw the failure without NSR" true (!drops > 0)

let () =
  Alcotest.run "tensor"
    [
      ( "keys",
        [
          Alcotest.test_case "meta roundtrip" `Quick test_keys_meta_roundtrip;
          Alcotest.test_case "in record" `Quick test_keys_in_record_roundtrip;
          Alcotest.test_case "rib entry" `Quick test_keys_rib_roundtrip;
          Alcotest.test_case "key parsers" `Quick test_keys_parsers;
          Alcotest.test_case "key zero padding" `Quick test_keys_padding_edges;
          Alcotest.test_case "cached encoder invalidation" `Quick
            test_cached_encoder_invalidation;
          Alcotest.test_case "unhex is strict" `Quick test_unhex_strict;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "establishes" `Quick test_deployment_establishes;
          Alcotest.test_case "routes both ways" `Quick
            test_routes_propagate_both_ways;
          Alcotest.test_case "meta written" `Quick test_meta_written_to_store;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "ACK never precedes replication" `Quick
            test_ack_never_precedes_replication;
          Alcotest.test_case "ablation: no hold -> violations" `Quick
            test_ablation_no_ack_hold_violates;
          Alcotest.test_case "invariant holds under loss" `Quick
            test_ack_invariant_under_loss;
          Alcotest.test_case "storage bound" `Quick test_storage_bound_after_flood;
        ] );
      ( "nsr",
        [
          Alcotest.test_case "app failure" `Quick test_nsr_app_failure;
          Alcotest.test_case "container failure" `Quick
            test_nsr_container_failure;
          Alcotest.test_case "host failure" `Quick test_nsr_host_failure;
          Alcotest.test_case "host network failure" `Quick
            test_nsr_host_network_failure;
          Alcotest.test_case "updates survive migration" `Quick
            test_updates_survive_migration;
          Alcotest.test_case "double failure" `Quick
            test_double_failure_second_migration;
          Alcotest.test_case "planned migration" `Quick
            test_planned_migration_zero_downtime;
          Alcotest.test_case "two-VRF container" `Quick
            test_two_vrf_container_migration;
          Alcotest.test_case "control: no NSR -> outage" `Quick
            test_baseline_without_nsr_peer_sees_outage;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hex_roundtrip;
            prop_meta_roundtrip;
            prop_codec_matches_printf;
            prop_hex_matches_printf;
            prop_stream_keys_match_printf;
            prop_cached_encoder;
          ] );
    ]
