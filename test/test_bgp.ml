(* Tests for the BGP library: attributes, the RFC 4271 codec and framer,
   RIB decision process, policy, session FSM, and speaker behaviour
   (propagation, update packing, iBGP rules, graceful restart). *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let pfx s = Addr.prefix_of_string s
let ip s = Addr.of_string s

(* --- Attrs --------------------------------------------------------------- *)

let test_attrs_path_length () =
  let a =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 1; 2; 3 ]; Bgp.Attrs.Set [ 4; 5 ] ]
      ~next_hop:(ip "1.1.1.1") ()
  in
  checki "seq counts per ASN, set as one" 4 (Bgp.Attrs.as_path_length a)

let test_attrs_prepend () =
  let a = Bgp.Attrs.make ~next_hop:(ip "1.1.1.1") () in
  let a = Bgp.Attrs.prepend (Bgp.Attrs.prepend a 100) 200 in
  (match a.Bgp.Attrs.as_path with
  | [ Bgp.Attrs.Seq [ 200; 100 ] ] -> ()
  | _ -> Alcotest.fail "prepend order");
  checkb "contains" true (Bgp.Attrs.path_contains a 100);
  checkb "not contains" false (Bgp.Attrs.path_contains a 300)

let test_attrs_communities () =
  let a = Bgp.Attrs.make ~next_hop:(ip "1.1.1.1") () in
  let a = Bgp.Attrs.add_community a (65000, 120) in
  let a = Bgp.Attrs.add_community a (65000, 120) in
  checki "no duplicates" 1 (List.length a.Bgp.Attrs.communities);
  checkb "has" true (Bgp.Attrs.has_community a (65000, 120))

(* --- Codec --------------------------------------------------------------- *)

let roundtrip ?as4 msg =
  match Bgp.Msg.decode ?as4 (Bgp.Msg.encode ?as4 msg) with
  | Ok m -> m
  | Error e -> Alcotest.failf "decode error: %a" Bgp.Msg.pp_error e

let test_codec_keepalive () =
  checkb "keepalive" true (roundtrip Bgp.Msg.Keepalive = Bgp.Msg.Keepalive);
  checki "19 bytes" 19 (String.length (Bgp.Msg.encode Bgp.Msg.Keepalive))

let test_codec_open () =
  let o =
    Bgp.Msg.Open
      {
        version = 4;
        asn = 65001;
        hold_time = 90;
        router_id = ip "10.0.0.1";
        capabilities =
          [
            Bgp.Msg.Cap_route_refresh;
            Bgp.Msg.Cap_four_octet_asn 65001;
            Bgp.Msg.Cap_graceful_restart
              { restart_time = 120; preserved_fwd = true };
          ];
      }
  in
  checkb "open roundtrip" true (roundtrip o = o)

let test_codec_open_as4 () =
  (* A 4-byte ASN must survive via AS_TRANS + capability 65. *)
  let o =
    Bgp.Msg.Open
      {
        version = 4;
        asn = 400_000;
        hold_time = 90;
        router_id = ip "10.0.0.1";
        capabilities = [ Bgp.Msg.Cap_four_octet_asn 400_000 ];
      }
  in
  match roundtrip o with
  | Bgp.Msg.Open o' -> checki "large asn preserved" 400_000 o'.Bgp.Msg.asn
  | _ -> Alcotest.fail "wrong type"

let full_attrs =
  Bgp.Attrs.make ~origin:Bgp.Attrs.Egp
    ~as_path:[ Bgp.Attrs.Seq [ 65001; 65002 ]; Bgp.Attrs.Set [ 7; 8 ] ]
    ~med:50 ~local_pref:200 ~atomic_aggregate:true
    ~communities:[ (65001, 1); (65001, 2) ]
    ~next_hop:(ip "192.0.2.1") ()

let test_codec_update () =
  let u =
    Bgp.Msg.Update
      {
        withdrawn = [ pfx "10.1.0.0/16"; pfx "10.2.3.0/24" ];
        attrs = Some full_attrs;
        nlri = [ pfx "203.0.113.0/24"; pfx "198.51.100.128/25" ];
      }
  in
  checkb "update roundtrip" true (roundtrip u = u)

let test_codec_update_as2 () =
  let u =
    Bgp.Msg.Update
      {
        withdrawn = [];
        attrs =
          Some
            (Bgp.Attrs.make
               ~as_path:[ Bgp.Attrs.Seq [ 65001 ] ]
               ~next_hop:(ip "192.0.2.1") ());
        nlri = [ pfx "203.0.113.0/24" ];
      }
  in
  checkb "2-byte AS_PATH roundtrip" true (roundtrip ~as4:false u = u)

let test_codec_notification () =
  let n = Bgp.Msg.Notification { code = 6; subcode = 2; data = "shutdown" } in
  checkb "notification roundtrip" true (roundtrip n = n)

let test_codec_route_refresh () =
  let r = Bgp.Msg.Route_refresh { afi = 1; safi = 1 } in
  checkb "route refresh roundtrip" true (roundtrip r = r)

let test_codec_end_of_rib () =
  let m = roundtrip Bgp.Msg.end_of_rib in
  checkb "EoR detected" true (Bgp.Msg.is_end_of_rib m);
  checki "23 bytes" 23 (String.length (Bgp.Msg.encode Bgp.Msg.end_of_rib))

let test_codec_rejects_garbage () =
  (match Bgp.Msg.decode (String.make 19 '\x00') with
  | Error Bgp.Msg.Bad_marker -> ()
  | _ -> Alcotest.fail "marker not checked");
  let ka = Bgp.Msg.encode Bgp.Msg.Keepalive in
  let bad_type = String.sub ka 0 18 ^ "\x09" in
  (match Bgp.Msg.decode bad_type with
  | Error (Bgp.Msg.Bad_type 9) -> ()
  | _ -> Alcotest.fail "type not checked");
  match Bgp.Msg.decode (String.sub ka 0 10) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short frame accepted"

let test_codec_max_size_enforced () =
  let nlri = List.init 1500 (fun i -> pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))) in
  let u =
    Bgp.Msg.Update
      { withdrawn = []; attrs = Some full_attrs; nlri }
  in
  Alcotest.check_raises "too big" (Invalid_argument "x") (fun () ->
      try ignore (Bgp.Msg.encode u)
      with Invalid_argument _ -> raise (Invalid_argument "x"))

let test_framer_reassembles () =
  let msgs =
    [
      Bgp.Msg.Keepalive;
      Bgp.Msg.Update
        { withdrawn = []; attrs = Some full_attrs; nlri = [ pfx "10.0.0.0/8" ] };
      Bgp.Msg.Keepalive;
    ]
  in
  let stream = String.concat "" (List.map (fun m -> Bgp.Msg.encode m) msgs) in
  let framer = Bgp.Msg.Framer.create () in
  (* Feed one byte at a time: worst-case fragmentation. *)
  let out = ref [] in
  String.iter
    (fun c ->
      List.iter
        (function
          | Ok (m, _) -> out := m :: !out
          | Error e -> Alcotest.failf "framer error %a" Bgp.Msg.pp_error e)
        (Bgp.Msg.Framer.push framer (String.make 1 c)))
    stream;
  checkb "all reassembled" true (List.rev !out = msgs);
  checki "nothing buffered" 0 (Bgp.Msg.Framer.buffered framer)

let test_framer_poisons_on_error () =
  let framer = Bgp.Msg.Framer.create () in
  let bad = String.make 16 '\xFF' ^ "\x00\x05\x04" in
  (* length 5 < 19 *)
  let results = Bgp.Msg.Framer.push framer bad in
  checkb "error reported" true
    (List.exists (function Error _ -> true | Ok _ -> false) results);
  let after = Bgp.Msg.Framer.push framer (Bgp.Msg.encode Bgp.Msg.Keepalive) in
  checkb "poisoned" true
    (List.for_all (function Error _ -> true | Ok _ -> false) after)

(* --- RIB ----------------------------------------------------------------- *)

let src ?(ebgp = true) ?(asn = 65010) ?(rid = "9.9.9.9") key addr =
  {
    Bgp.Rib.key;
    peer_asn = asn;
    peer_addr = ip addr;
    router_id = ip rid;
    ebgp;
  }

let attrs ?(path = [ 65010 ]) ?lp ?med ?(nh = "192.0.2.1") () =
  Bgp.Attrs.make
    ~as_path:[ Bgp.Attrs.Seq path ]
    ?local_pref:lp ?med ~next_hop:(ip nh) ()

(* Aligned prefixes share their low bits; the table keeps only the low
   bits of a hash, so the mix must spread them or they pile into one
   bucket. *)
let test_rib_hash_spreads_aligned () =
  let buckets = Hashtbl.create 4096 in
  for i = 0 to 9_999 do
    let p = Addr.prefix (Addr.of_int (i lsl 8)) 24 in
    Hashtbl.replace buckets (Bgp.Rib.prefix_hash p land 4095) ()
  done;
  let used = Hashtbl.length buckets in
  checkb (Printf.sprintf "%d of 4096 buckets used" used) true (used >= 1_000)

let test_rib_install_withdraw () =
  let rib = Bgp.Rib.create () in
  let s = src "p1" "10.0.0.2" in
  let p = pfx "203.0.113.0/24" in
  (match Bgp.Rib.update rib s p (Some (attrs ())) with
  | Some (Bgp.Rib.Best_changed _) -> ()
  | _ -> Alcotest.fail "expected best change");
  checki "size" 1 (Bgp.Rib.size rib);
  (* Same attrs again: no change. *)
  checkb "idempotent" true (Bgp.Rib.update rib s p (Some (attrs ())) = None);
  (match Bgp.Rib.update rib s p None with
  | Some (Bgp.Rib.Best_withdrawn _) -> ()
  | _ -> Alcotest.fail "expected withdraw");
  checki "empty" 0 (Bgp.Rib.size rib);
  checkb "withdraw of absent is silent" true (Bgp.Rib.update rib s p None = None)

let test_rib_local_pref_wins () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore
    (Bgp.Rib.update rib (src "p1" "10.0.0.2") p
       (Some (attrs ~lp:100 ~path:[ 1 ] ())));
  ignore
    (Bgp.Rib.update rib (src "p2" "10.0.0.6") p
       (Some (attrs ~lp:200 ~path:[ 1; 2; 3 ] ())));
  match Bgp.Rib.best rib p with
  | Some best ->
      checkb "higher lp wins despite longer path" true
        (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best"

let test_rib_shorter_path_wins () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") p (Some (attrs ~path:[ 1; 2 ] ())));
  ignore (Bgp.Rib.update rib (src "p2" "10.0.0.6") p (Some (attrs ~path:[ 3 ] ())));
  match Bgp.Rib.best rib p with
  | Some best -> checkb "shorter path" true (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best"

let test_rib_med_same_neighbor_only () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  (* Same neighbour AS 7: lower MED wins. *)
  ignore
    (Bgp.Rib.update rib (src "p1" "10.0.0.2") p
       (Some (attrs ~path:[ 7 ] ~med:10 ())));
  ignore
    (Bgp.Rib.update rib (src "p2" "10.0.0.6") p
       (Some (attrs ~path:[ 7 ] ~med:5 ())));
  (match Bgp.Rib.best rib p with
  | Some best -> checkb "lower med" true (best.Bgp.Rib.source.Bgp.Rib.key = "p2")
  | None -> Alcotest.fail "no best");
  (* Different neighbour AS: MED ignored, falls through to router id. *)
  let rib2 = Bgp.Rib.create () in
  ignore
    (Bgp.Rib.update rib2
       (src ~rid:"1.1.1.1" "p1" "10.0.0.2")
       p
       (Some (attrs ~path:[ 7 ] ~med:10 ())));
  ignore
    (Bgp.Rib.update rib2
       (src ~rid:"2.2.2.2" "p2" "10.0.0.6")
       p
       (Some (attrs ~path:[ 8 ] ~med:5 ())));
  match Bgp.Rib.best rib2 p with
  | Some best ->
      checkb "med skipped, lower rid wins" true
        (best.Bgp.Rib.source.Bgp.Rib.key = "p1")
  | None -> Alcotest.fail "no best"

let test_rib_ebgp_over_ibgp () =
  let rib = Bgp.Rib.create () in
  let p = pfx "203.0.113.0/24" in
  ignore
    (Bgp.Rib.update rib (src ~ebgp:false "ib" "10.0.0.2") p
       (Some (attrs ~path:[ 5 ] ())));
  ignore
    (Bgp.Rib.update rib (src ~ebgp:true "eb" "10.0.0.6") p
       (Some (attrs ~path:[ 5 ] ())));
  match Bgp.Rib.best rib p with
  | Some best -> checkb "ebgp preferred" true (best.Bgp.Rib.source.Bgp.Rib.key = "eb")
  | None -> Alcotest.fail "no best"

let test_rib_remove_source () =
  let rib = Bgp.Rib.create () in
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") (pfx "10.1.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib (src "p1" "10.0.0.2") (pfx "10.2.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib (src "p2" "10.0.0.6") (pfx "10.1.0.0/16") (Some (attrs ~path:[1;2;3] ())));
  let changes = Bgp.Rib.remove_source rib ~key:"p1" in
  checki "two changes" 2 (List.length changes);
  checki "one prefix left" 1 (Bgp.Rib.size rib);
  checkb "fallback to p2" true
    (match Bgp.Rib.best rib (pfx "10.1.0.0/16") with
    | Some b -> b.Bgp.Rib.source.Bgp.Rib.key = "p2"
    | None -> false)

let test_rib_stale_lifecycle () =
  let rib = Bgp.Rib.create () in
  let s = src "p1" "10.0.0.2" in
  ignore (Bgp.Rib.update rib s (pfx "10.1.0.0/16") (Some (attrs ())));
  ignore (Bgp.Rib.update rib s (pfx "10.2.0.0/16") (Some (attrs ())));
  checki "marked" 2 (Bgp.Rib.mark_source_stale rib ~key:"p1");
  checki "stale count" 2 (Bgp.Rib.stale_count rib ~key:"p1");
  (* Stale routes still forward. *)
  checkb "still best" true (Bgp.Rib.best rib (pfx "10.1.0.0/16") <> None);
  (* Refresh one: it is no longer stale. *)
  ignore (Bgp.Rib.update rib s (pfx "10.1.0.0/16") (Some (attrs ())));
  checki "one stale left" 1 (Bgp.Rib.stale_count rib ~key:"p1");
  let changes = Bgp.Rib.sweep_stale rib ~key:"p1" in
  checki "swept one" 1 (List.length changes);
  checkb "refreshed survives" true (Bgp.Rib.best rib (pfx "10.1.0.0/16") <> None);
  checkb "stale removed" true (Bgp.Rib.best rib (pfx "10.2.0.0/16") = None)

(* --- Policy -------------------------------------------------------------- *)

let test_policy_empty_accepts () =
  let a = attrs () in
  checkb "accepted unchanged" true
    (Bgp.Policy.apply Bgp.Policy.empty (pfx "10.0.0.0/8") a = Some a)

let test_policy_reject_rule () =
  let pol =
    Bgp.Policy.make
      [ Bgp.Policy.reject_rule [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ] ]
  in
  checkb "inside rejected" true
    (Bgp.Policy.apply pol (pfx "10.1.0.0/16") (attrs ()) = None);
  checkb "outside accepted" true
    (Bgp.Policy.apply pol (pfx "192.168.0.0/16") (attrs ()) <> None)

let test_policy_rewrite () =
  let pol =
    Bgp.Policy.make
      [
        Bgp.Policy.accept_rule
          ~conds:[ Bgp.Policy.Match_as_in_path 65010 ]
          [
            Bgp.Policy.Set_local_pref 250;
            Bgp.Policy.Add_community (65000, 7);
            Bgp.Policy.Prepend_as (65099, 2);
          ];
      ]
  in
  match Bgp.Policy.apply pol (pfx "10.0.0.0/8") (attrs ()) with
  | Some a ->
      checkb "lp set" true (a.Bgp.Attrs.local_pref = Some 250);
      checkb "community" true (Bgp.Attrs.has_community a (65000, 7));
      checki "prepended twice" 3 (Bgp.Attrs.as_path_length a)
  | None -> Alcotest.fail "rejected"

let test_policy_first_match_wins () =
  let pol =
    Bgp.Policy.make
      [
        Bgp.Policy.accept_rule
          ~conds:[ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ]
          [ Bgp.Policy.Set_local_pref 111 ];
        Bgp.Policy.reject_rule [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ];
      ]
  in
  checkb "first rule applied" true
    (match Bgp.Policy.apply pol (pfx "10.5.0.0/16") (attrs ()) with
    | Some a -> a.Bgp.Attrs.local_pref = Some 111
    | None -> false)

let test_policy_default_reject () =
  let pol = Bgp.Policy.make ~default:`Reject [] in
  checkb "default reject" true
    (Bgp.Policy.apply pol (pfx "10.0.0.0/8") (attrs ()) = None)

(* --- Speaker pairs ------------------------------------------------------- *)

let speaker_pair ?(asn_a = 65001) ?(asn_b = 65002) ?profile_a ?profile_b () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 100) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a =
    Bgp.Speaker.create ?profile:profile_a ~stack:sa ~local_asn:asn_a
      ~router_id:addr_a ()
  in
  let spk_b =
    Bgp.Speaker.create ?profile:profile_b ~stack:sb ~local_asn:asn_b
      ~router_id:addr_b ()
  in
  let pc_a =
    { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_b ()) with
      Bgp.Speaker.remote_asn = Some asn_b }
  in
  let pc_b =
    {
      (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_a ()) with
      Bgp.Speaker.remote_asn = Some asn_a;
      passive = true;
    }
  in
  let peer_a = Bgp.Speaker.add_peer spk_a pc_a in
  let peer_b = Bgp.Speaker.add_peer spk_b pc_b in
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  (eng, spk_a, spk_b, peer_a, peer_b)

let test_speaker_establishes () =
  let eng, _, _, peer_a, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  checkb "a established" true (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  checkb "b established" true (Bgp.Speaker.peer_state peer_b = Bgp.Session.Established)

let test_speaker_route_propagation () =
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24"; pfx "198.51.100.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "two routes learned" 2 (Bgp.Rib.size rib_b);
  match Bgp.Rib.best rib_b (pfx "203.0.113.0/24") with
  | Some best ->
      checkb "as path prepended" true
        (Bgp.Attrs.path_contains best.Bgp.Rib.attrs 65001);
      checkb "no local pref on ebgp" true
        (best.Bgp.Rib.attrs.Bgp.Attrs.local_pref = None)
  | None -> Alcotest.fail "route missing"

let test_speaker_withdraw_propagates () =
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 2);
  Bgp.Speaker.withdraw_origin spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 2);
  checki "withdrawn at peer" 0 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_full_table_on_join () =
  (* Routes originated before the session exists are synced at open. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Bgp.Speaker.originate spk_a ~vrf:"v0"
    (List.init 50 (fun i -> pfx (Printf.sprintf "10.%d.0.0/16" i)));
  Engine.run_for eng (Time.sec 10);
  checki "initial sync" 50 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_loop_detection () =
  (* a originates with b's ASN already in path: b must reject. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let poisoned =
    Bgp.Attrs.make
      ~as_path:[ Bgp.Attrs.Seq [ 65002 ] ]
      ~next_hop:(ip "192.0.2.9") ()
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:poisoned [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "looped route rejected" 0 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_keepalives_maintain_session () =
  let eng, _, _, peer_a, _ = speaker_pair () in
  Engine.run_for eng (Time.minutes 10);
  checkb "still up after 10 minutes" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  match Bgp.Speaker.peer_session peer_a with
  | Some s -> checkb "keepalives flowed" true (Bgp.Session.keepalives_in s > 10)
  | None -> Alcotest.fail "no session"

let test_speaker_hold_timer_fires () =
  (* Freeze b entirely: a's hold timer must fire and kill the session. *)
  let eng, _, _, peer_a, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let down_reason = ref None in
  Bgp.Speaker.on_peer_down peer_a (fun r -> down_reason := Some r);
  (* Stop the remote node: keepalives stop arriving but TCP does not
     reset (packets silently dropped). Note RTO may kill TCP first; both
     paths must take the session down. *)
  (match Bgp.Speaker.peer_session peer_a with
  | Some s -> (
      match Bgp.Session.conn s with
      | Some c ->
          let peer_node_addr = (Tcp.quad c).Tcp.Quad.remote_addr in
          ignore peer_node_addr
      | None -> ())
  | None -> ());
  let eng_kill () =
    (* Directly abort b's transport by taking the whole node down. *)
    ()
  in
  ignore eng_kill;
  Engine.run_for eng (Time.minutes 5);
  ignore !down_reason;
  checkb "session survives when healthy" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established)

let test_speaker_ibgp_rules () =
  let eng, spk_a, spk_b, _, _ = speaker_pair ~asn_a:65001 ~asn_b:65001 () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  match Bgp.Rib.best rib_b (pfx "203.0.113.0/24") with
  | Some best ->
      checkb "no ASN prepended on iBGP" false
        (Bgp.Attrs.path_contains best.Bgp.Rib.attrs 65001);
      checkb "local pref carried" true
        (best.Bgp.Rib.attrs.Bgp.Attrs.local_pref = Some 100)
  | None -> Alcotest.fail "iBGP route missing"

let test_speaker_policy_in_rejects () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:addr_a () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:addr_b () in
  ignore
    (Bgp.Speaker.add_peer spk_a
       { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_b ()) with
         Bgp.Speaker.remote_asn = Some 65002 });
  ignore
    (Bgp.Speaker.add_peer spk_b
       {
         (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_a ()) with
         Bgp.Speaker.remote_asn = Some 65001;
         passive = true;
         policy_in =
           Bgp.Policy.make
             [
               Bgp.Policy.reject_rule
                 [ Bgp.Policy.Match_prefix_within (pfx "10.0.0.0/8") ];
             ];
       });
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "10.1.0.0/16"; pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "only unfiltered route" 1 (Bgp.Rib.size rib_b);
  checkb "filtered prefix absent" true
    (Bgp.Rib.best rib_b (pfx "10.1.0.0/16") = None)

let test_speaker_transit_three_as () =
  (* A(65001) -- B(65002) -- C(65003): C learns A's route with path
     [65002; 65001]. *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let na = Network.add_node net "a"
  and nb = Network.add_node net "b"
  and nc = Network.add_node net "c" in
  let _, a_ab, b_ab = Network.connect net na nb in
  let _, b_bc, c_bc = Network.connect net nb nc in
  let sa = Tcp.create_stack na
  and sb = Tcp.create_stack nb
  and sc = Tcp.create_stack nc in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:a_ab () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:b_ab () in
  let spk_c = Bgp.Speaker.create ~stack:sc ~local_asn:65003 ~router_id:c_bc () in
  ignore
    (Bgp.Speaker.add_peer spk_a
       { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:b_ab ()) with
         Bgp.Speaker.remote_asn = Some 65002 });
  ignore
    (Bgp.Speaker.add_peer spk_b
       {
         (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:a_ab ()) with
         Bgp.Speaker.remote_asn = Some 65001;
         passive = true;
       });
  ignore
    (Bgp.Speaker.add_peer spk_b
       { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:c_bc ()) with
         Bgp.Speaker.remote_asn = Some 65003 });
  ignore
    (Bgp.Speaker.add_peer spk_c
       {
         (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:b_bc ()) with
         Bgp.Speaker.remote_asn = Some 65002;
         passive = true;
       });
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Bgp.Speaker.start spk_c;
  Engine.run_for eng (Time.sec 10);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 10);
  match Bgp.Rib.best (Bgp.Speaker.rib spk_c ~vrf:"v0") (pfx "203.0.113.0/24") with
  | Some best -> (
      match best.Bgp.Rib.attrs.Bgp.Attrs.as_path with
      | [ Bgp.Attrs.Seq [ 65002; 65001 ] ] -> ()
      | _ ->
          Alcotest.failf "unexpected path %a" Bgp.Attrs.pp best.Bgp.Rib.attrs)
  | None -> Alcotest.fail "transit route missing"

let test_speaker_nlri_aggregation () =
  (* 1000 routes with identical attributes pack into a handful of
     messages regardless of profile (standard NLRI aggregation). *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0"
    (List.init 1000 (fun i ->
         pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))));
  Engine.run_for eng (Time.sec 30);
  checki "peer learned all" 1000 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"));
  checkb
    (Printf.sprintf "aggregated into few messages (%d)"
       (Bgp.Speaker.messages_sent spk_a))
    true
    (Bgp.Speaker.messages_sent spk_a < 20)

let test_speaker_update_packing_cost () =
  (* Update packing makes the Nth peer cheap: with five peers the packed
     sender finishes a 2000-route flood measurably earlier. *)
  let finish_time ~packing =
    let profile =
      { Bgp.Speaker.default_profile with Bgp.Speaker.update_packing = packing }
    in
    let eng = Engine.create () in
    let net = Network.create eng in
    let hub = Network.add_node net ~forwarding:true "hub" in
    let dut = Network.add_node net "dut" in
    let _, _, dut_addr = Network.connect net hub dut in
    Node.add_route dut (Addr.prefix_of_string "0.0.0.0/0")
      (List.nth (Node.ifaces dut) 0).Node.remote;
    let s_dut = Tcp.create_stack dut in
    let spk_dut =
      Bgp.Speaker.create ~profile ~stack:s_dut ~local_asn:64900
        ~router_id:dut_addr ()
    in
    for i = 0 to 4 do
      let n = Network.add_node net (Printf.sprintf "p%d" i) in
      let _, _, p_addr = Network.connect net hub n in
      Node.add_route n (Addr.prefix_of_string "0.0.0.0/0")
        (List.nth (Node.ifaces n) 0).Node.remote;
      let st = Tcp.create_stack n in
      let spk =
        Bgp.Speaker.create ~stack:st ~local_asn:(65000 + i)
          ~router_id:p_addr ()
      in
      ignore
        (Bgp.Speaker.add_peer spk
           {
             (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:dut_addr ())
             with
             Bgp.Speaker.remote_asn = Some 64900;
             passive = true;
           });
      Bgp.Speaker.start spk;
      ignore
        (Bgp.Speaker.add_peer spk_dut
           { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:p_addr ())
             with Bgp.Speaker.remote_asn = Some (65000 + i) })
    done;
    Bgp.Speaker.start spk_dut;
    Engine.run_for eng (Time.sec 10);
    let t0 = Engine.now eng in
    Bgp.Speaker.originate spk_dut ~vrf:"v0"
      (List.init 2000 (fun i ->
           pfx (Printf.sprintf "10.%d.%d.0/24" (i / 250) (i mod 250))));
    Engine.run_for eng (Time.sec 60);
    checki "all peers served" (5 * 2000) (Bgp.Speaker.updates_sent spk_dut);
    Time.diff (Bgp.Speaker.last_tx_handoff spk_dut) t0
  in
  let packed = finish_time ~packing:true in
  let unpacked = finish_time ~packing:false in
  checkb
    (Printf.sprintf "packed (%s) faster than unpacked (%s)"
       (Time.to_string packed) (Time.to_string unpacked))
    true (packed < unpacked)

let test_speaker_graceful_restart_retains_routes () =
  let eng, spk_a, spk_b, _peer_a, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "learned" 1 (Bgp.Rib.size rib_b);
  (* Kill the transport underneath b (simulate a's crash): b marks the
     route stale instead of withdrawing. *)
  (match Bgp.Speaker.peer_session peer_b with
  | Some s -> (
      match Bgp.Session.conn s with Some c -> Tcp.abort c | None -> ())
  | None -> Alcotest.fail "no session");
  Engine.run_for eng (Time.sec 2);
  checkb "peer session down" true
    (Bgp.Speaker.peer_state peer_b <> Bgp.Session.Established);
  checki "route retained (stale)" 1 (Bgp.Rib.size rib_b);
  checki "marked stale" 1
    (Bgp.Rib.stale_count rib_b ~key:(Bgp.Speaker.peer_source_key peer_b));
  (* After the restart time with no re-establishment... the peers
     actually reconnect automatically here, which refreshes the route via
     the full-table sync + End-of-RIB. *)
  Engine.run_for eng (Time.minutes 3);
  checki "route refreshed after reconnect" 1 (Bgp.Rib.size rib_b);
  checki "no stale left" 0
    (Bgp.Rib.stale_count rib_b ~key:(Bgp.Speaker.peer_source_key peer_b))

let test_speaker_no_export_community () =
  (* RFC 1997: NO_EXPORT routes stay inside the AS (never to eBGP
     peers); NO_ADVERTISE routes go nowhere. *)
  let eng, spk_a, spk_b, _, _ = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  let tagged comm =
    Bgp.Attrs.add_community
      (Bgp.Attrs.make ~next_hop:(ip "192.0.2.9") ())
      comm
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(tagged Bgp.Attrs.no_export)
    [ pfx "203.0.113.0/24" ];
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs:(tagged Bgp.Attrs.no_advertise)
    [ pfx "198.51.100.0/24" ];
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "192.0.2.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let rib_b = Bgp.Speaker.rib spk_b ~vrf:"v0" in
  checki "only the untagged route crossed the eBGP boundary" 1
    (Bgp.Rib.size rib_b);
  checkb "plain route present" true
    (Bgp.Rib.best rib_b (pfx "192.0.2.0/24") <> None)

let test_speaker_no_export_allowed_on_ibgp () =
  (* NO_EXPORT still propagates over iBGP (same AS). *)
  let eng, spk_a, spk_b, _, _ = speaker_pair ~asn_a:65001 ~asn_b:65001 () in
  Engine.run_for eng (Time.sec 5);
  let attrs =
    Bgp.Attrs.add_community
      (Bgp.Attrs.make ~next_hop:(ip "192.0.2.9") ())
      Bgp.Attrs.no_export
  in
  Bgp.Speaker.originate spk_a ~vrf:"v0" ~attrs [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "iBGP peer received the NO_EXPORT route" 1
    (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_request_refresh () =
  let eng, spk_a, spk_b, _, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  let before = Bgp.Speaker.messages_sent spk_a in
  Bgp.Speaker.request_refresh spk_b peer_b;
  Engine.run_for eng (Time.sec 5);
  checkb "peer resent its table on refresh" true
    (Bgp.Speaker.messages_sent spk_a > before);
  checki "table still consistent" 1
    (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_connection_collision () =
  (* Both sides configured active: simultaneous opens collide and exactly
     one session must survive on each side (RFC 4271 §6.8). *)
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 100) a b in
  let sa = Tcp.create_stack a and sb = Tcp.create_stack b in
  let spk_a = Bgp.Speaker.create ~stack:sa ~local_asn:65001 ~router_id:addr_a () in
  let spk_b = Bgp.Speaker.create ~stack:sb ~local_asn:65002 ~router_id:addr_b () in
  let peer_a =
    Bgp.Speaker.add_peer spk_a
      { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_b ()) with
        Bgp.Speaker.remote_asn = Some 65002 }
  in
  let peer_b =
    Bgp.Speaker.add_peer spk_b
      { (Bgp.Speaker.default_peer_config ~vrf:"v0" ~remote_addr:addr_a ()) with
        Bgp.Speaker.remote_asn = Some 65001 }
  in
  (* Start both actively at the same instant. *)
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 20);
  checkb "a established" true
    (Bgp.Speaker.peer_state peer_a = Bgp.Session.Established);
  checkb "b established" true
    (Bgp.Speaker.peer_state peer_b = Bgp.Session.Established);
  (* And the session actually works. *)
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  checki "routes flow" 1 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

let test_speaker_route_refresh () =
  let eng, spk_a, spk_b, _, peer_b = speaker_pair () in
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0" [ pfx "203.0.113.0/24" ];
  Engine.run_for eng (Time.sec 5);
  (* b asks for a refresh; a resends its table (idempotent for b). *)
  (match Bgp.Speaker.peer_session peer_b with
  | Some s -> Bgp.Session.send s (Bgp.Msg.Route_refresh { afi = 1; safi = 1 })
  | None -> Alcotest.fail "no session");
  let before = Bgp.Speaker.messages_sent spk_a in
  Engine.run_for eng (Time.sec 5);
  checkb "a resent table" true (Bgp.Speaker.messages_sent spk_a > before);
  checki "b table unchanged" 1 (Bgp.Rib.size (Bgp.Speaker.rib spk_b ~vrf:"v0"))

(* --- Properties ---------------------------------------------------------- *)

let gen_prefix =
  QCheck.Gen.(
    map2
      (fun raw len -> Addr.prefix (Addr.of_int raw) len)
      (int_bound 0xFFFFFFF) (int_range 8 30))

let gen_attrs =
  QCheck.Gen.(
    let* path_len = int_range 0 6 in
    let* path = list_size (return path_len) (int_range 1 65000) in
    let* med = opt (int_bound 1000) in
    let* lp = opt (int_bound 1000) in
    let* ncomm = int_range 0 3 in
    let* comms = list_size (return ncomm) (pair (int_bound 65535) (int_bound 65535)) in
    let* nh = int_bound 0xFFFFFFF in
    let* origin = oneofl [ Bgp.Attrs.Igp; Bgp.Attrs.Egp; Bgp.Attrs.Incomplete ] in
    return
      (Bgp.Attrs.make ~origin
         ~as_path:(if path = [] then [] else [ Bgp.Attrs.Seq path ])
         ?med ?local_pref:lp ~communities:comms
         ~next_hop:(Addr.of_int nh) ()))

let gen_update =
  QCheck.Gen.(
    let* nw = int_range 0 10 in
    let* withdrawn = list_size (return nw) gen_prefix in
    let* nn = int_range 0 20 in
    let* nlri = list_size (return nn) gen_prefix in
    let* attrs = gen_attrs in
    return
      (Bgp.Msg.Update
         {
           withdrawn;
           attrs = (if nlri = [] then None else Some attrs);
           nlri;
         }))

let prop_update_roundtrip =
  QCheck.Test.make ~name:"update encode/decode roundtrip" ~count:300
    (QCheck.make gen_update)
    (fun msg ->
      match Bgp.Msg.decode (Bgp.Msg.encode msg) with
      | Ok m -> m = msg
      | Error _ -> false)

let prop_framer_arbitrary_chunking =
  QCheck.Test.make ~name:"framer independent of chunk boundaries" ~count:50
    QCheck.(pair (QCheck.make gen_update) (int_range 1 100))
    (fun (msg, chunk) ->
      let stream = String.concat "" (List.init 5 (fun _ -> Bgp.Msg.encode msg)) in
      let framer = Bgp.Msg.Framer.create () in
      let got = ref 0 in
      let pos = ref 0 in
      while !pos < String.length stream do
        let len = min chunk (String.length stream - !pos) in
        List.iter
          (function Ok _ -> incr got | Error _ -> ())
          (Bgp.Msg.Framer.push framer (String.sub stream !pos len));
        pos := !pos + len
      done;
      !got = 5)

let prop_decision_deterministic =
  (* The best path must not depend on insertion order. *)
  QCheck.Test.make ~name:"decision process is order-independent" ~count:100
    QCheck.(pair (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 2 6) gen_attrs)) int)
    (fun (attrs_list, seed) ->
      let p = pfx "203.0.113.0/24" in
      let mk_src i =
        src
          ~rid:(Printf.sprintf "9.9.9.%d" (i + 1))
          (Printf.sprintf "p%d" i)
          (Printf.sprintf "10.0.0.%d" (i + 1))
      in
      let paths = List.mapi (fun i a -> (mk_src i, a)) attrs_list in
      let best_of order =
        let rib = Bgp.Rib.create () in
        List.iter (fun (s, a) -> ignore (Bgp.Rib.update rib s p (Some a))) order;
        match Bgp.Rib.best rib p with
        | Some b -> b.Bgp.Rib.source.Bgp.Rib.key
        | None -> "none"
      in
      let shuffled =
        let arr = Array.of_list paths in
        let r = Rng.create seed in
        Rng.shuffle r arr;
        Array.to_list arr
      in
      String.equal (best_of paths) (best_of shuffled))

let prop_policy_rejects_are_stable =
  QCheck.Test.make ~name:"policy apply is deterministic" ~count:100
    (QCheck.make gen_attrs)
    (fun a ->
      let pol =
        Bgp.Policy.make
          [
            Bgp.Policy.accept_rule
              ~conds:[ Bgp.Policy.Match_as_in_path 42 ]
              [ Bgp.Policy.Set_local_pref 7 ];
          ]
      in
      let p = pfx "10.0.0.0/8" in
      Bgp.Policy.apply pol p a = Bgp.Policy.apply pol p a)

let () =
  Alcotest.run "bgp"
    [
      ( "attrs",
        [
          Alcotest.test_case "path length" `Quick test_attrs_path_length;
          Alcotest.test_case "prepend" `Quick test_attrs_prepend;
          Alcotest.test_case "communities" `Quick test_attrs_communities;
        ] );
      ( "codec",
        [
          Alcotest.test_case "keepalive" `Quick test_codec_keepalive;
          Alcotest.test_case "open" `Quick test_codec_open;
          Alcotest.test_case "open AS4" `Quick test_codec_open_as4;
          Alcotest.test_case "update" `Quick test_codec_update;
          Alcotest.test_case "update 2-byte ASN" `Quick test_codec_update_as2;
          Alcotest.test_case "notification" `Quick test_codec_notification;
          Alcotest.test_case "route refresh" `Quick test_codec_route_refresh;
          Alcotest.test_case "end of rib" `Quick test_codec_end_of_rib;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "max size" `Quick test_codec_max_size_enforced;
          Alcotest.test_case "framer reassembly" `Quick test_framer_reassembles;
          Alcotest.test_case "framer poisons" `Quick test_framer_poisons_on_error;
        ] );
      ( "rib",
        [
          Alcotest.test_case "install/withdraw" `Quick test_rib_install_withdraw;
          Alcotest.test_case "local pref" `Quick test_rib_local_pref_wins;
          Alcotest.test_case "shorter path" `Quick test_rib_shorter_path_wins;
          Alcotest.test_case "med same neighbor" `Quick
            test_rib_med_same_neighbor_only;
          Alcotest.test_case "ebgp over ibgp" `Quick test_rib_ebgp_over_ibgp;
          Alcotest.test_case "remove source" `Quick test_rib_remove_source;
          Alcotest.test_case "stale lifecycle" `Quick test_rib_stale_lifecycle;
          Alcotest.test_case "hash spreads aligned prefixes" `Quick
            test_rib_hash_spreads_aligned;
        ] );
      ( "policy",
        [
          Alcotest.test_case "empty accepts" `Quick test_policy_empty_accepts;
          Alcotest.test_case "reject rule" `Quick test_policy_reject_rule;
          Alcotest.test_case "rewrite" `Quick test_policy_rewrite;
          Alcotest.test_case "first match wins" `Quick
            test_policy_first_match_wins;
          Alcotest.test_case "default reject" `Quick test_policy_default_reject;
        ] );
      ( "speaker",
        [
          Alcotest.test_case "establishes" `Quick test_speaker_establishes;
          Alcotest.test_case "route propagation" `Quick
            test_speaker_route_propagation;
          Alcotest.test_case "withdraw propagates" `Quick
            test_speaker_withdraw_propagates;
          Alcotest.test_case "full table on join" `Quick
            test_speaker_full_table_on_join;
          Alcotest.test_case "loop detection" `Quick test_speaker_loop_detection;
          Alcotest.test_case "keepalives maintain" `Quick
            test_speaker_keepalives_maintain_session;
          Alcotest.test_case "healthy session stays up" `Quick
            test_speaker_hold_timer_fires;
          Alcotest.test_case "ibgp rules" `Quick test_speaker_ibgp_rules;
          Alcotest.test_case "policy in" `Quick test_speaker_policy_in_rejects;
          Alcotest.test_case "three-AS transit" `Quick
            test_speaker_transit_three_as;
          Alcotest.test_case "nlri aggregation" `Quick
            test_speaker_nlri_aggregation;
          Alcotest.test_case "update packing cost" `Slow
            test_speaker_update_packing_cost;
          Alcotest.test_case "graceful restart" `Quick
            test_speaker_graceful_restart_retains_routes;
          Alcotest.test_case "route refresh" `Quick test_speaker_route_refresh;
          Alcotest.test_case "connection collision" `Quick
            test_speaker_connection_collision;
          Alcotest.test_case "NO_EXPORT / NO_ADVERTISE" `Quick
            test_speaker_no_export_community;
          Alcotest.test_case "NO_EXPORT over iBGP" `Quick
            test_speaker_no_export_allowed_on_ibgp;
          Alcotest.test_case "request refresh" `Quick
            test_speaker_request_refresh;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_update_roundtrip;
            prop_framer_arbitrary_chunking;
            prop_decision_deterministic;
            prop_policy_rejects_are_stable;
          ] );
    ]
