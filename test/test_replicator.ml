(* Direct unit tests of the Replicator against a free-cost store: write
   batching and ordering, watermark discipline, trimming, ablation flags,
   and resume bookkeeping — without a full deployment around it. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type rig = {
  eng : Engine.t;
  server : Store.Server.t;
  client : Store.Client.t;
  repl : Tensor.Replicator.t;
  cid : Tensor.Keys.conn_id;
  link : Link.t; (* replicator <-> store *)
  db_addr : Addr.t;
}

let make_rig ?(ack_hold = true) () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db = Network.add_node net "db" in
  let link, _, db_addr = Network.connect net ~delay:(Time.us 100) app db in
  let server = Store.Server.create ~cost:Store.free_cost_model db in
  let client = Store.Client.create app ~server:db_addr in
  let cid = Tensor.Keys.conn_id ~service:"rig" ~vrf:"v0" in
  let repl =
    Tensor.Replicator.create ~ack_hold ~engine:eng ~client
      ~conn_id:cid ~service:"rig" ()
  in
  { eng; server; client; repl; cid; link; db_addr }

let keepalive = Bgp.Msg.Keepalive

let update n =
  Bgp.Msg.Update
    {
      withdrawn = [];
      attrs =
        Some
          (Bgp.Attrs.make
             ~as_path:[ Bgp.Attrs.Seq [ 65010 ] ]
             ~next_hop:(Addr.of_string "10.0.0.2") ());
      nlri = [ Netsim.Addr.prefix (Netsim.Addr.of_octets 100 0 n 0) 24 ];
    }

let test_rx_message_becomes_durable () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:1100;
  Engine.run r.eng;
  checkb "in record present" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) <> None);
  Alcotest.(check (option string))
    "watermark written" (Some "1100")
    (Store.Server.peek r.server (Tensor.Keys.ack_key r.cid));
  checkb "watermark confirmed locally" true
    (Tensor.Replicator.watermark r.repl = Some 1100)

(* Speaker [a] (AS 65001) opens a session to [b] (AS 65002), whose hooks
   are [hooks_of repl] for one replicator writing to a free-cost store,
   and announces 300 routes with one attribute set; the rig returns once
   the session has settled. *)
let speaker_rig hooks_of =
  let eng = Engine.create () in
  let net = Network.create eng in
  let a = Network.add_node net "ra" and b = Network.add_node net "rb" in
  let db = Network.add_node net "db" in
  let _, addr_a, addr_b = Network.connect net ~delay:(Time.us 100) a b in
  let _, _, db_addr = Network.connect net ~delay:(Time.us 100) b db in
  let server = Store.Server.create ~cost:Store.free_cost_model db in
  let cid = Tensor.Keys.conn_id ~service:"rx" ~vrf:"v0" in
  let repl =
    Tensor.Replicator.create ~engine:eng
      ~client:(Store.Client.create b ~server:db_addr)
      ~conn_id:cid ~service:"rx" ()
  in
  let spk_a =
    Bgp.Speaker.create ~stack:(Tcp.create_stack a) ~local_asn:65001 ~router_id:addr_a ()
  in
  let spk_b =
    Bgp.Speaker.create ~hooks:(hooks_of repl) ~stack:(Tcp.create_stack b)
      ~local_asn:65002 ~router_id:addr_b ()
  in
  ignore
    (Bgp.Speaker.add_peer spk_a
       (Bgp.Speaker.default_peer_config ~remote_asn:65002 ~vrf:"v0"
          ~remote_addr:addr_b ()));
  ignore
    (Bgp.Speaker.add_peer spk_b
       (Bgp.Speaker.default_peer_config ~remote_asn:65001 ~passive:true
          ~vrf:"v0" ~remote_addr:addr_a ()));
  Bgp.Speaker.start spk_a;
  Bgp.Speaker.start spk_b;
  Engine.run_for eng (Time.sec 5);
  Bgp.Speaker.originate spk_a ~vrf:"v0"
    ~attrs:
      (Bgp.Attrs.make ~med:7 ~communities:[ (65001, 9) ]
         ~as_path:[ Bgp.Attrs.Seq [ 64512 ] ] ~next_hop:addr_a ())
    (List.init 300 (fun i -> Addr.prefix (Addr.of_octets 100 (i / 256) (i mod 256) 0) 24));
  Engine.run_for eng (Time.sec 40);
  (server, cid, repl)

(* A receiving speaker replicates each frame as it arrived. Over a real
   session carrying OPEN, KEEPALIVE, UPDATE and End-of-RIB, every frame
   equals its message encoded again, and the UPDATE in-records (kept
   until applied; nothing applies them here) hold exactly those bytes.
   Record sizes drive simulated time, so the two must not differ. *)
let test_rx_frames_match_reencode () =
  let received = ref [] in
  let server, cid, _ =
    speaker_rig (fun repl ->
        {
          Bgp.Speaker.no_hooks with
          on_rx_replicate =
            (fun _ msg ~raw ~inferred_ack ->
              received := (msg, raw, inferred_ack) :: !received;
              Tensor.Replicator.on_rx_message repl ~raw msg ~inferred_ack);
        })
  in
  let received = List.rev !received in
  let kinds =
    List.sort_uniq String.compare
      (List.map
         (fun (msg, _, _) ->
           match msg with
           | Bgp.Msg.Open _ -> "open"
           | Bgp.Msg.Keepalive -> "keepalive"
           | Bgp.Msg.Update _ when Bgp.Msg.is_end_of_rib msg -> "end-of-rib"
           | Bgp.Msg.Update _ -> "update"
           | Bgp.Msg.Notification _ -> "notification"
           | Bgp.Msg.Route_refresh _ -> "route-refresh")
         received)
  in
  Alcotest.(check (list string))
    "message kinds" [ "end-of-rib"; "keepalive"; "open"; "update" ] kinds;
  List.iteri
    (fun seq (msg, raw, ack) ->
      let encoded = Bgp.Msg.encode msg in
      checkb (Printf.sprintf "frame %d is the re-encode" seq) true (String.equal raw encoded);
      match msg with
      | Bgp.Msg.Update _ ->
          Alcotest.(check (option string))
            (Printf.sprintf "in-record %d" seq)
            (Some (Store.Value.to_string (Tensor.Keys.encode_in_record ~ack ~raw:encoded)))
            (Store.Server.peek server (Tensor.Keys.in_key cid seq))
      | _ -> ())
    received

(* [speaker_hooks] trims an applied UPDATE's in| record only behind its
   Loc-RIB checkpoint: without [of_vrf] there is no checkpoint, so the
   records stay (and the speaker keeps [no_hooks]' checkpoint hook);
   with it every record goes once its checkpoint is queued. *)
let test_speaker_hooks_trim_with_checkpoint () =
  let in_records server cid =
    List.length
      (List.filter
         (fun seq -> Store.Server.peek server (Tensor.Keys.in_key cid seq) <> None)
         (List.init 64 Fun.id))
  in
  let checkpointed server =
    Store.Server.peek server
      (Tensor.Keys.rib_key ~service:"rx" ~vrf:"v0"
         (Addr.prefix (Addr.of_octets 100 0 7 0) 24))
    <> None
  in
  let hooks = ref Bgp.Speaker.no_hooks in
  let server, cid, repl =
    speaker_rig (fun repl ->
        hooks := Tensor.Replicator.speaker_hooks ~of_peer:(fun _ -> Some repl) ();
        !hooks)
  in
  checkb "no of_vrf: the checkpoint hook is no_hooks' own" true
    (!hooks.on_rib_change == Bgp.Speaker.no_hooks.on_rib_change);
  checkb "no of_vrf: no checkpoint" false (checkpointed server);
  checkb "no of_vrf: the UPDATE replicas stay" true (in_records server cid > 0);
  checkb "no of_vrf: nothing applied" true
    (Tensor.Replicator.pending_unapplied repl > 0);
  let server, cid, repl =
    speaker_rig (fun repl ->
        let hooked = Some repl in
        Tensor.Replicator.speaker_hooks
          ~of_peer:(fun _ -> hooked)
          ~of_vrf:(fun _ -> hooked)
          ())
  in
  checkb "of_vrf: checkpointed" true (checkpointed server);
  checki "of_vrf: every in| record trimmed" 0 (in_records server cid);
  checki "of_vrf: every UPDATE applied" 0
    (Tensor.Replicator.pending_unapplied repl)

let test_keepalive_trimmed_immediately () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl keepalive ~inferred_ack:1020;
  Engine.run r.eng;
  checkb "keepalive record trimmed" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) = None);
  Alcotest.(check (option string))
    "but watermark advanced" (Some "1020")
    (Store.Server.peek r.server (Tensor.Keys.ack_key r.cid))

let test_update_trimmed_only_after_applied () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:1100;
  Engine.run r.eng;
  checkb "retained while unapplied" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) <> None);
  checki "pending count" 1 (Tensor.Replicator.pending_unapplied r.repl);
  Tensor.Replicator.on_rx_applied r.repl;
  Engine.run r.eng;
  checkb "trimmed after apply" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 0) = None);
  checki "pending drained" 0 (Tensor.Replicator.pending_unapplied r.repl)

let test_tx_release_waits_for_durability () =
  let r = make_rig () in
  let released = ref false in
  Tensor.Replicator.on_tx_message r.repl ~raw:"0123456789" ~release:(fun () ->
      released := true);
  checkb "not released synchronously" false !released;
  Engine.run r.eng;
  checkb "released after write" true !released;
  checkb "out record stored" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 0) <> None);
  checki "bytes accounted" 10 (Tensor.Replicator.bytes_written r.repl)

let test_tx_offsets_are_cumulative () =
  let r = make_rig () in
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 19 'a')
    ~release:(fun () -> ());
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 23 'b')
    ~release:(fun () -> ());
  Engine.run r.eng;
  checkb "second record at offset 19" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 19) <> None);
  checki "total" 42 (Tensor.Replicator.bytes_written r.repl)

let test_note_snd_una_trims_out_records () =
  let r = make_rig () in
  let iss = 5000 in
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 100 'a')
    ~release:(fun () -> ());
  Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 100 'b')
    ~release:(fun () -> ());
  Engine.run r.eng;
  (* Peer acked the first message only. *)
  Tensor.Replicator.note_snd_una r.repl ~iss ~snd_una:(iss + 1 + 100);
  Engine.run r.eng;
  checkb "first trimmed" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 0) = None);
  checkb "second retained" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 100) <> None);
  Alcotest.(check (option string))
    "outtrim recorded" (Some "100")
    (Store.Server.peek r.server (Tensor.Keys.outtrim_key r.cid))

(* Trimming against the semantics it has always had: after each snd_una,
   exactly the records ending at or below the highest offset acked so far
   are gone from the store, and outtrim holds the last ack that trimmed
   one. The acks cover a record boundary, a mid-record offset, a step
   back, a repeat, and the whole stream. *)
let test_trim_many_out_records () =
  let r = make_rig () in
  let iss = 7000 in
  let n = 1_000 in
  let lens = Array.init n (fun i -> 19 + (i * 37 mod 120)) in
  let offs = Array.make n 0 in
  for i = 1 to n - 1 do
    offs.(i) <- offs.(i - 1) + lens.(i - 1)
  done;
  Array.iter
    (fun len ->
      Tensor.Replicator.on_tx_message r.repl ~raw:(String.make len 'u')
        ~release:(fun () -> ()))
    lens;
  Engine.run r.eng;
  let ends i = offs.(i) + lens.(i) in
  let all = List.init n Fun.id in
  let acked_max = ref 0 and outtrim = ref None in
  List.iter
    (fun acked ->
      Tensor.Replicator.note_snd_una r.repl ~iss ~snd_una:(iss + 1 + acked);
      Engine.run r.eng;
      if acked > !acked_max then begin
        if List.exists (fun i -> ends i <= acked && ends i > !acked_max) all then
          outtrim := Some (string_of_int acked);
        acked_max := acked
      end;
      let retained =
        List.filter
          (fun i ->
            Store.Server.peek r.server (Tensor.Keys.out_key r.cid offs.(i)) <> None)
          all
      in
      Alcotest.(check (list int))
        (Printf.sprintf "records retained after ack %d" acked)
        (List.filter (fun i -> ends i > !acked_max) all)
        retained;
      Alcotest.(check (option string))
        (Printf.sprintf "outtrim after ack %d" acked)
        !outtrim
        (Store.Server.peek r.server (Tensor.Keys.outtrim_key r.cid)))
    [ offs.(10); offs.(10) + 5; offs.(10) - 1; offs.(11) + 1; offs.(11) + 1;
      ends 500; ends 998 + 3; ends (n - 1) ]

let test_rib_checkpoint_roundtrip () =
  let r = make_rig () in
  let src =
    {
      Bgp.Rib.key = "v0/10.0.0.2";
      peer_asn = 65010;
      peer_addr = Addr.of_string "10.0.0.2";
      router_id = Addr.of_string "9.9.9.9";
      ebgp = true;
    }
  in
  let prefix = Netsim.Addr.prefix_of_string "100.1.0.0/24" in
  let attrs = Bgp.Attrs.make ~next_hop:(Addr.of_string "10.0.0.2") () in
  Tensor.Replicator.on_rib_change r.repl ~vrf:"v0"
    (Bgp.Rib.Best_changed (prefix, { Bgp.Rib.source = src; attrs; stale = false }));
  Engine.run r.eng;
  let key = Tensor.Keys.rib_key ~service:"rig" ~vrf:"v0" prefix in
  let scanned = ref [] in
  Store.Client.scan r.client ~prefix:key (function
    | Ok pairs -> scanned := pairs
    | Error `Timeout -> ());
  Engine.run r.eng;
  (match List.assoc_opt key !scanned with
  | Some v -> (
      match Tensor.Keys.decode_rib_entry (Tensor.Keys.rib_decoder ()) v with
      | Ok (src', p', attrs') ->
          checkb "entry roundtrips" true
            (src' = src
            && Netsim.Addr.equal_prefix p' prefix
            && Bgp.Attrs.equal attrs' attrs)
      | Error e -> Alcotest.failf "decode: %s" e)
  | None -> Alcotest.fail "checkpoint missing");
  (* Withdraw deletes it. *)
  Tensor.Replicator.on_rib_change r.repl ~vrf:"v0" (Bgp.Rib.Best_withdrawn prefix);
  Engine.run r.eng;
  checkb "withdrawn entry deleted" true (Store.Server.peek r.server key = None)

(* --- Checkpoint batching --------------------------------------------------------

   The write lane coalesces consecutive sets (and consecutive deletes)
   into batches. Batch boundaries decide the store's per-request cost, so
   the lane must cut exactly where its original list-append version did.
   That version is kept here as the reference. *)

type ref_op = R_set of (string * string) list | R_del of string list

let ref_enqueue ~max_batch queue op =
  match (op, queue) with
  | R_set pairs, R_set pairs0 :: rest when List.length pairs0 < max_batch ->
      R_set (pairs0 @ pairs) :: rest
  | R_del keys, R_del keys0 :: rest
    when List.length keys < 64 && List.length keys0 < 8 * max_batch ->
      R_del (List.rev_append keys keys0) :: rest
  | _ -> op :: queue

(* Ops submitted back to back to an idle lane: the first goes out at
   once, the rest queue behind it and coalesce. *)
let ref_batches ~max_batch = function
  | [] -> []
  | first :: rest ->
      first :: List.rev (List.fold_left (ref_enqueue ~max_batch) [] rest)

let src_a =
  {
    Bgp.Rib.key = "v0/10.0.0.2";
    peer_asn = 65010;
    peer_addr = Addr.of_string "10.0.0.2";
    router_id = Addr.of_string "9.9.9.9";
    ebgp = true;
  }

(* The [j]-th /24 of 100.0.0.0/8. *)
let pfx24 j = Netsim.Addr.prefix (Netsim.Addr.of_octets 100 (j / 256) (j mod 256) 0) 24

(* [n] Loc-RIB changes shaped like a route flood: blocks of 50 prefixes
   share one attribute set (one UPDATE each), prefixes repeat every 100
   changes — so one batch can hold two writes of a key, the later one
   winning — and every 150 changes a run of 10 withdrawals interrupts
   the sets. *)
let flood n =
  let attrs =
    Array.init ((n / 50) + 1) (fun b ->
        Bgp.Attrs.make ~med:b ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018 + b ] ]
          ~next_hop:(Addr.of_string "10.0.0.2") ())
  in
  List.init n (fun i ->
      let p = pfx24 (i mod 100) in
      if i mod 150 >= 100 && i mod 150 < 110 then Bgp.Rib.Best_withdrawn p
      else
        Bgp.Rib.Best_changed
          (p, { Bgp.Rib.source = src_a; attrs = attrs.(i / 50); stale = false }))

let ref_op_of_change = function
  | Bgp.Rib.Best_changed (p, path) ->
      R_set
        [
          ( Tensor.Keys.rib_key ~service:"rig" ~vrf:"v0" p,
            Tensor.Keys.encode_rib_entry path.Bgp.Rib.source p path.Bgp.Rib.attrs );
        ]
  | Bgp.Rib.Best_withdrawn p -> R_del [ Tensor.Keys.rib_key ~service:"rig" ~vrf:"v0" p ]

let sorted_table tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let test_batches_match_reference () =
  let r = make_rig () in
  let changes = flood 1_000 in
  (* What the store must see: per request, its wire size and the table
     state it lands on. *)
  let expected_batches =
    ref_batches ~max_batch:128 (List.map ref_op_of_change changes)
  in
  let model = Hashtbl.create 128 in
  let expected =
    List.map
      (fun op ->
        let before = sorted_table model in
        let size =
          match op with
          | R_set pairs ->
              List.iter (fun (k, v) -> Hashtbl.replace model k v) pairs;
              List.fold_left
                (fun a (k, v) -> a + String.length k + String.length v)
                64 pairs
          | R_del keys ->
              List.iter (Hashtbl.remove model) keys;
              List.fold_left (fun a k -> a + String.length k) 64 keys
        in
        (size, before))
      expected_batches
  in
  (* What it does see: requests are pipelined depth one, so when a
     request arrives the previous one has been applied. *)
  let snapshot () =
    Store.Server.keys_with_prefix r.server "rib|"
    |> List.map (fun k -> (k, Option.get (Store.Server.peek r.server k)))
    |> List.sort compare
  in
  let seen = ref [] in
  Link.tap r.link (fun _ pkt ->
      if Addr.equal pkt.Packet.dst r.db_addr then
        seen := (pkt.Packet.size, snapshot ()) :: !seen);
  List.iter (Tensor.Replicator.on_rib_change r.repl ~vrf:"v0") changes;
  Engine.run r.eng;
  let seen = List.rev !seen in
  checki "requests" (List.length expected) (List.length seen);
  List.iteri
    (fun i ((esize, estate), (size, state)) ->
      checki (Printf.sprintf "request %d size" i) esize size;
      checkb (Printf.sprintf "store state before request %d" i) true (estate = state))
    (List.combine expected seen);
  checkb "final store state" true (sorted_table model = snapshot ())

let test_release_callbacks_in_order () =
  (* Releases ride the control lane's set batches; across batch
     boundaries they must still fire in submission order. *)
  let r = make_rig () in
  let released = ref [] in
  for i = 0 to 299 do
    Tensor.Replicator.on_tx_message r.repl ~raw:(String.make 7 'x')
      ~release:(fun () -> released := i :: !released)
  done;
  Engine.run r.eng;
  Alcotest.(check (list int)) "release order" (List.init 300 Fun.id)
    (List.rev !released)

(* Bytes allocated per checkpointed route, for a flood whose UPDATEs
   each carry 500 prefixes under one attribute set, read with the exact
   counter. Before records shared their head this read 386 B (48.3
   words): a key built through [prefix_to_string], a flat record of
   about 180 characters, and a one-pair list, tuple and op per route,
   copied twice more by the lane. Now it reads 116.5 B, every byte
   placed (each part counted on its own with the same counter, OCaml
   5.1.1, 64-bit):
   - the key, 39.7 B: its 25 characters take four words and a header;
   - the NLRI tail and the value record, 24 B each, and the heads
     rebuilt for each of the four attribute sets, 3.3 B per route;
   - the batch's two array slots, 16.25 B, and its first 8-slot chunk,
     1.1 B;
   - the first change's write request, which the idle lane sends at
     once: about 13 KB of one-time set-up of the RPC, its packet and the
     engine queues, 6.6 B per route over these 2,000;
   - the 16 batch records and their queue cells, about 1.6 B.
   The bound is the reading plus 3%. Allocation is deterministic, so
   this is not flaky. *)
let rib_change_bytes_bound = 120.

let test_rib_change_allocation () =
  let r = make_rig () in
  let n = 2_000 in
  let attrs =
    Array.init (n / 500) (fun u ->
        Bgp.Attrs.make ~med:u
          ~as_path:[ Bgp.Attrs.Seq [ 65010; 7018; 3356 ] ]
          ~communities:[ (65010, u) ]
          ~next_hop:(Addr.of_string "10.0.0.2") ())
  in
  let changes =
    List.init n (fun i ->
        Bgp.Rib.Best_changed
          (pfx24 i, { Bgp.Rib.source = src_a; attrs = attrs.(i / 500); stale = false }))
  in
  let a0 = Prof.Profiler.allocated_bytes () in
  List.iter (Tensor.Replicator.on_rib_change r.repl ~vrf:"v0") changes;
  let per_route = (Prof.Profiler.allocated_bytes () -. a0) /. float_of_int n in
  Engine.run r.eng;
  checki "all checkpointed" n
    (List.length (Store.Server.keys_with_prefix r.server "rib|"));
  if per_route > rib_change_bytes_bound then
    Alcotest.failf "on_rib_change allocates %.1f B/route (bound %.0f)"
      per_route rib_change_bytes_bound

let test_resume_continues_counters () =
  let r = make_rig () in
  Tensor.Replicator.resume_at r.repl ~epoch:0 ~watermark:2000 ~bytes_written:500
    ~in_seq:7 ~outtrim:300
    ~out_records:[ (300, 100); (400, 100) ];
  checkb "watermark restored" true
    (Tensor.Replicator.watermark r.repl = Some 2000);
  checki "bytes continue" 500 (Tensor.Replicator.bytes_written r.repl);
  (* Next rx message uses the continued sequence counter. *)
  Tensor.Replicator.on_rx_message r.repl (update 1) ~inferred_ack:2100;
  Engine.run r.eng;
  checkb "in record at seq 7" true
    (Store.Server.peek r.server (Tensor.Keys.in_key r.cid 7) <> None);
  (* Next tx continues at offset 500. *)
  Tensor.Replicator.on_tx_message r.repl ~raw:"abc" ~release:(fun () -> ());
  Engine.run r.eng;
  checkb "out record at offset 500" true
    (Store.Server.peek r.server (Tensor.Keys.out_key r.cid 500) <> None)

let test_drain_fires_when_quiet () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  for i = 1 to 50 do
    Tensor.Replicator.on_rx_message r.repl (update i)
      ~inferred_ack:(1000 + (i * 50))
  done;
  let drained = ref false in
  Tensor.Replicator.drain r.repl (fun () -> drained := true);
  checkb "not drained yet" false !drained;
  Engine.run r.eng;
  checkb "drained" true !drained

let held_seg ack =
  {
    Tcp.Segment.src_port = 179;
    dst_port = 179;
    seq = 0;
    ack;
    window = 1000;
    payload = "";
    flags = Tcp.Segment.flag_ack;
  }

(* A held reinjection must not be wedged by stop. It is released with a
   Drop verdict, since a fenced primary must not ACK bytes the store has
   not confirmed, and reported as [Ack_dropped], so event and wire
   agree. *)
(* Both ways a held ACK leaves without watermark cover, with the wire
   verdict and the event each gives it today. [stop] (fenced or dead
   primary) drops the segment; [session_down] (dead transport) passes it
   with [Accept], yet both report [Ack_dropped]. Once stopped, a later
   segment passes unheld. *)
let test_stop_releases_held () =
  List.iter
    (fun (name, flush, on_wire) ->
      let r = make_rig () in
      let chain = Netfilter.create () in
      Tensor.Replicator.attach_output_chain r.repl chain
        ~local:(Addr.of_string "1.1.1.1") ~remote:(Addr.of_string "2.2.2.2");
      Tensor.Replicator.session_established r.repl ~irs:1000;
      let emitted = ref 0 in
      let traverse ack =
        Netfilter.traverse chain
          (Packet.make ~src:(Addr.of_string "1.1.1.1")
             ~dst:(Addr.of_string "2.2.2.2") ~size:40
             (Tcp.Segment.Tcp (held_seg ack)))
          ~emit:(fun _ -> incr emitted)
      in
      (* A segment acking beyond the watermark gets held. *)
      traverse 99_999;
      checki (name ^ ": held") 1 (Tensor.Replicator.held_segments r.repl);
      let (), entries =
        Telemetry.Control.capture (fun () -> flush r.repl)
      in
      let dropped =
        List.filter_map
          (fun (e : Telemetry.Bus.entry) ->
            match e.event with
            | Telemetry.Event.Ack_dropped { ack; _ } -> Some ack
            | _ -> None)
          entries
      in
      checki (name ^ ": released") 0 (Tensor.Replicator.held_segments r.repl);
      Alcotest.(check (list int))
        (name ^ ": Ack_dropped for the held ACK") [ 99_999 ] dropped;
      checki (name ^ ": segments on the wire") on_wire !emitted;
      if name = "stop" then begin
        traverse 199_999;
        checki "stopped: a later segment is not held" 0
          (Tensor.Replicator.held_segments r.repl);
        checki "stopped: a later segment passes" 1 !emitted
      end)
    [
      ("stop", Tensor.Replicator.stop, 0);
      ("session_down", Tensor.Replicator.session_down, 1);
    ]

(* --- Watchdog --------------------------------------------------------------- *)

(* Dispatches of [label] while [f] runs, counted by an engine
   observer. *)
let count_dispatches label f =
  let n = ref 0 in
  let o =
    {
      Engine.before =
        (fun ~eng:_ ~id:_ ~parent:_ ~label:l ~sched_at:_ ~exec_at:_ ->
          if String.equal l label then incr n);
      after = ignore;
    }
  in
  Engine.attach o;
  Fun.protect ~finally:(fun () -> Engine.detach o) f;
  !n

let test_idle_watchdog_is_silent () =
  let r = make_rig () in
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Tensor.Replicator.set_tail_source r.repl (fun () -> None);
  Tensor.Replicator.set_degrade_after r.repl (Some (Time.ms 100));
  let ticks =
    count_dispatches "repl.watchdog" (fun () -> Engine.run_for r.eng (Time.sec 10))
  in
  checki "no watchdog tick while nothing is held" 0 ticks

(* A held ACK the store cannot cover is shed at a tick of the 25 ms grid
   that starts when the watchdog is first armed: the first grid instant
   at which the ACK has aged [degrade_after]. A polling watchdog ticked
   on that grid all along; the event-driven one must shed at the same
   instant. Returns the grid origin and the instants of the shed and of
   [Degraded_enter]; the ACK is held [hold_at] after the origin. *)
let shed_instant ~degrade_after ~hold_at =
  let r = make_rig () in
  let chain = Netfilter.create () in
  let local = Addr.of_string "1.1.1.1" and remote = Addr.of_string "2.2.2.2" in
  Tensor.Replicator.attach_output_chain r.repl chain ~local ~remote;
  Engine.run_for r.eng (Time.ms 7);
  let origin = Engine.now r.eng in
  Tensor.Replicator.set_degrade_after r.repl (Some degrade_after);
  Tensor.Replicator.session_established r.repl ~irs:1000;
  Engine.run_until r.eng (Time.add origin hold_at);
  (* The store goes away; the next message's write cannot land. *)
  Link.set_up r.link false;
  Tensor.Replicator.on_rx_message r.repl keepalive ~inferred_ack:1020;
  let released = ref None in
  let (), entries =
    Telemetry.Control.capture (fun () ->
        Netfilter.traverse chain
          (Packet.make ~src:local ~dst:remote ~size:40
             (Tcp.Segment.Tcp (held_seg 1020)))
          ~emit:(fun _ -> released := Some (Engine.now r.eng));
        checki "held" 1 (Tensor.Replicator.held_segments r.repl);
        Engine.run_for r.eng (Time.sec 1))
  in
  let entered =
    List.filter_map
      (fun (e : Telemetry.Bus.entry) ->
        match e.event with
        | Telemetry.Event.Degraded_enter _ -> Some e.at
        | _ -> None)
      entries
  in
  checkb "degraded" true (Tensor.Replicator.degraded r.repl);
  (origin, !released, entered)

let check_shed ~degrade_after ~hold_at ~expect =
  let origin, released, entered = shed_instant ~degrade_after ~hold_at in
  let expect = Time.add origin expect in
  Alcotest.(check (option int)) "shed at the grid tick" (Some expect) released;
  Alcotest.(check (list int)) "Degraded_enter at the same tick" [ expect ] entered

(* Held between ticks at +1006 ms, aged 100 ms at +1106: the next tick is
   +1125. *)
let test_shed_on_grid () =
  check_shed ~degrade_after:(Time.ms 100) ~hold_at:(Time.ms 1_006)
    ~expect:(Time.ms 1_125)

(* [degrade_after] = 0, from a negotiated hold time of 0: the first tick
   that sees the ACK sheds it. Held at +1025 ms, just after that
   instant's tick ran, the poll shed at the next tick, +1050. *)
let test_shed_at_zero_deadline () =
  check_shed ~degrade_after:0 ~hold_at:(Time.ms 1_025) ~expect:(Time.ms 1_050)

let () =
  Alcotest.run "replicator"
    [
      ( "receive",
        [
          Alcotest.test_case "rx becomes durable" `Quick
            test_rx_message_becomes_durable;
          Alcotest.test_case "keepalive trimmed" `Quick
            test_keepalive_trimmed_immediately;
          Alcotest.test_case "update trimmed after apply" `Quick
            test_update_trimmed_only_after_applied;
          Alcotest.test_case "frames match the re-encode" `Quick
            test_rx_frames_match_reencode;
          Alcotest.test_case "speaker hooks trim behind checkpoints" `Quick
            test_speaker_hooks_trim_with_checkpoint;
        ] );
      ( "send",
        [
          Alcotest.test_case "release waits for durability" `Quick
            test_tx_release_waits_for_durability;
          Alcotest.test_case "offsets cumulative" `Quick
            test_tx_offsets_are_cumulative;
          Alcotest.test_case "snd_una trims" `Quick
            test_note_snd_una_trims_out_records;
          Alcotest.test_case "trim 1,000 records" `Quick
            test_trim_many_out_records;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "rib roundtrip" `Quick test_rib_checkpoint_roundtrip;
          Alcotest.test_case "batches match reference" `Quick
            test_batches_match_reference;
          Alcotest.test_case "release callbacks in order" `Quick
            test_release_callbacks_in_order;
          Alcotest.test_case "allocation per route" `Quick
            test_rib_change_allocation;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "resume continues counters" `Quick
            test_resume_continues_counters;
          Alcotest.test_case "drain" `Quick test_drain_fires_when_quiet;
          Alcotest.test_case "stop releases held" `Quick test_stop_releases_held;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "idle watchdog is silent" `Quick
            test_idle_watchdog_is_silent;
          Alcotest.test_case "shed on the 25 ms grid" `Quick test_shed_on_grid;
          Alcotest.test_case "degrade_after = 0 sheds next tick" `Quick
            test_shed_at_zero_deadline;
        ] );
    ]
