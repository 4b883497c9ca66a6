(* Tests for the Redis-like store: semantics, the Figure 5(b) latency
   calibration, replication, and failure behaviour. *)

open Sim
open Netsim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let setup ?cost () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db = Network.add_node net "db" in
  let _, _, db_addr = Network.connect net ~delay:(Time.us 100) app db in
  let server = Store.Server.create ?cost db in
  let client = Store.Client.create app ~server:db_addr in
  (eng, server, client, db)

let run_set eng client pairs =
  let done_ = ref false in
  Store.Client.set client pairs (fun r ->
      (match r with Ok () -> () | Error `Timeout -> Alcotest.fail "set timeout");
      done_ := true);
  Engine.run eng;
  checkb "set completed" true !done_

let test_set_get () =
  let eng, server, client, _ = setup ~cost:Store.free_cost_model () in
  run_set eng client [ ("k1", "v1"); ("k2", "v2") ];
  checki "records" 2 (Store.Server.records server);
  let got = ref [] in
  Store.Client.get client [ "k1"; "k3"; "k2" ] (fun r ->
      match r with Ok vs -> got := vs | Error _ -> Alcotest.fail "get failed");
  Engine.run eng;
  Alcotest.(check (list (pair string (option string))))
    "values in request order"
    [ ("k1", Some "v1"); ("k3", None); ("k2", Some "v2") ]
    !got

let test_overwrite_accounting () =
  let eng, server, client, _ = setup ~cost:Store.free_cost_model () in
  run_set eng client [ ("key", "short") ];
  let b1 = Store.Server.stored_bytes server in
  run_set eng client [ ("key", "a much longer value") ];
  checki "still one record" 1 (Store.Server.records server);
  checki "bytes reflect overwrite"
    (b1 - String.length "short" + String.length "a much longer value")
    (Store.Server.stored_bytes server)

let test_del () =
  let eng, server, client, _ = setup ~cost:Store.free_cost_model () in
  run_set eng client [ ("a", "1"); ("b", "2"); ("c", "3") ];
  let n = ref (-1) in
  Store.Client.del client [ "a"; "nope"; "c" ] (fun r ->
      match r with Ok k -> n := k | Error _ -> Alcotest.fail "del failed");
  Engine.run eng;
  checki "deleted existing only" 2 !n;
  checki "one left" 1 (Store.Server.records server);
  checkb "b remains" true (Store.Server.peek server "b" = Some "2")

let test_scan () =
  let eng, _, client, _ = setup ~cost:Store.free_cost_model () in
  run_set eng client
    [ ("conn1|m|3", "z"); ("conn1|m|1", "x"); ("conn2|m|1", "y"); ("conn1|m|2", "w") ];
  let got = ref [] in
  Store.Client.scan client ~prefix:"conn1|" (fun r ->
      match r with Ok ps -> got := ps | Error _ -> Alcotest.fail "scan failed");
  Engine.run eng;
  Alcotest.(check (list (pair string string)))
    "prefix-filtered, sorted"
    [ ("conn1|m|1", "x"); ("conn1|m|2", "w"); ("conn1|m|3", "z") ]
    !got

let test_ordering_single_client () =
  (* Two sets to the same key issued back-to-back land in order. *)
  let eng, server, client, _ = setup () in
  Store.Client.set client [ ("k", "first") ] (fun _ -> ());
  Store.Client.set client [ ("k", "second") ] (fun _ -> ());
  Engine.run eng;
  checkb "last write wins" true (Store.Server.peek server "k" = Some "second")

(* --- Latency calibration (Figure 5b) ----------------------------------- *)

let record_value = String.make 4096 'v' (* 4 KB BGP message *)
let record_key i = Printf.sprintf "%-86s%04d" "vrf|quad|peer" i (* 90 B key *)

let timed_op eng f =
  let t0 = Engine.now eng in
  let t1 = ref None in
  f (fun () -> t1 := Some (Engine.now eng));
  Engine.run eng;
  match !t1 with
  | Some t -> Time.to_ms_f (Time.diff t t0)
  | None -> Alcotest.fail "operation did not complete"

let write_n _eng client n k =
  let pairs = List.init n (fun i -> (record_key i, record_value)) in
  Store.Client.set client ~timeout:(Time.minutes 5) pairs (fun r ->
      match r with Ok () -> k () | Error _ -> Alcotest.fail "set failed")

let read_n _eng client n k =

  let keys = List.init n (fun i -> record_key i) in
  Store.Client.get client ~timeout:(Time.minutes 5) keys (fun r ->
      match r with Ok _ -> k () | Error _ -> Alcotest.fail "get failed")

let test_latency_single_ops () =
  let eng, _, client, _ = setup () in
  let w1 = timed_op eng (fun k -> write_n eng client 1 k) in
  checkb (Printf.sprintf "single write ~1ms (got %.3f)" w1) true
    (w1 > 0.5 && w1 < 1.5);
  let r1 = timed_op eng (fun k -> read_n eng client 1 k) in
  checkb (Printf.sprintf "single read <0.5ms (got %.3f)" r1) true (r1 < 0.5);
  checkb "write ~2.5x read" true (w1 /. r1 > 1.5 && w1 /. r1 < 3.5)

let test_latency_small_batches () =
  let eng, _, client, _ = setup () in
  let w10 = timed_op eng (fun k -> write_n eng client 10 k) in
  checkb (Printf.sprintf "10 writes <2ms (got %.3f)" w10) true (w10 < 2.0);
  let _ = timed_op eng (fun k -> write_n eng client 70 k) in
  let r70 = timed_op eng (fun k -> read_n eng client 70 k) in
  checkb (Printf.sprintf "70 reads ~1-2ms (got %.3f)" r70) true (r70 < 2.5)

let test_latency_large_batches () =
  let eng, _, client, _ = setup () in
  let w10k = timed_op eng (fun k -> write_n eng client 10_000 k) in
  checkb (Printf.sprintf "10K writes ~500ms (got %.1f)" w10k) true
    (w10k > 350.0 && w10k < 650.0);
  let r10k = timed_op eng (fun k -> read_n eng client 10_000 k) in
  checkb (Printf.sprintf "10K reads ~200ms (got %.1f)" r10k) true
    (r10k > 140.0 && r10k < 260.0)

let test_latency_batching_beats_singles () =
  let eng, _, client, _ = setup () in
  let batch = timed_op eng (fun k -> write_n eng client 100 k) in
  (* One hundred sequential single-record writes. *)
  let t0 = Engine.now eng in
  let finished = ref Time.zero in
  let rec go i =
    if i = 0 then finished := Engine.now eng
    else
      Store.Client.set client [ (record_key i, record_value) ] (fun _ ->
          go (i - 1))
  in
  go 100;
  Engine.run eng;
  let singles = Time.to_ms_f (Time.diff !finished t0) in
  checkb
    (Printf.sprintf "batch (%.1fms) well under singles (%.1fms)" batch singles)
    true
    (batch *. 5.0 < singles)

(* --- Replication and failures ------------------------------------------ *)

let test_replica_receives_writes () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db1 = Network.add_node net "db1" in
  let db2 = Network.add_node net "db2" in
  let _, _, db1_addr = Network.connect net app db1 in
  let _ = Network.connect net db1 db2 in
  let primary = Store.Server.create ~cost:Store.free_cost_model db1 in
  let replica = Store.Server.create ~cost:Store.free_cost_model db2 in
  Store.Server.attach_replica primary replica;
  let client = Store.Client.create app ~server:db1_addr in
  run_set eng client [ ("k", "v") ];
  checkb "replica has the write" true (Store.Server.peek replica "k" = Some "v")

let test_replica_same_node_rejected () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let db = Network.add_node net "db" in
  Node.add_address db (Addr.of_string "1.2.3.4");
  let s1 = Store.Server.create db in
  let s2 = Store.Server.create db in
  Alcotest.check_raises "same node"
    (Invalid_argument "Store.Server.attach_replica: replica on the same node")
    (fun () -> Store.Server.attach_replica s1 s2)

let test_server_down_times_out () =
  let eng, _, client, db_node = setup () in
  Node.set_up db_node false;
  let result = ref None in
  Store.Client.set client ~timeout:(Time.ms 500) [ ("k", "v") ] (fun r ->
      result := Some r);
  Engine.run eng;
  match !result with
  | Some (Error `Timeout) -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_server_recovers_after_reboot () =
  let eng, server, client, db_node = setup ~cost:Store.free_cost_model () in
  run_set eng client [ ("persist", "me") ];
  Node.set_up db_node false;
  ignore (Engine.schedule_after eng (Time.sec 1) (fun () -> Node.set_up db_node true));
  Engine.run eng;
  let got = ref None in
  Store.Client.get client [ "persist" ] (fun r ->
      match r with
      | Ok [ (_, v) ] -> got := v
      | _ -> Alcotest.fail "get failed");
  Engine.run eng;
  checkb "data survives reboot (RAM model, process kept)" true
    (!got = Some "me");
  checkb "server object intact" true (Store.Server.records server = 1)

let replicated_setup ?cost () =
  let eng = Engine.create () in
  let net = Network.create eng in
  let app = Network.add_node net "app" in
  let db1 = Network.add_node net "db1" in
  let db2 = Network.add_node net "db2" in
  let _, app_on_db1, db1_addr = Network.connect net app db1 in
  let _, app_on_db2, db2_addr = Network.connect net app db2 in
  (* The app sources requests from one address; each store node routes
     every reply back through its own link to the app. *)
  Node.add_route db1 (Addr.prefix_of_string "0.0.0.0/0") app_on_db1;
  Node.add_route db2 (Addr.prefix_of_string "0.0.0.0/0") app_on_db2;
  let primary = Store.Server.create ?cost db1 in
  let replica = Store.Server.create ?cost db2 in
  Store.Server.attach_replica primary replica;
  (eng, primary, replica, db1_addr, db2_addr, app)

let test_replica_ack_after_apply () =
  (* The primary withholds its reply until the replica has applied the
     write, so at callback time the replica must already hold it. Runs
     under the calibrated cost model, where the replica's apply takes
     real simulated time. *)
  let eng, _, replica, db1_addr, _, app = replicated_setup () in
  let client = Store.Client.create app ~server:db1_addr in
  let seen = ref None in
  Store.Client.set client [ ("k", "v") ] (fun r ->
      (match r with Ok () -> () | Error `Timeout -> Alcotest.fail "set timeout");
      seen := Some (Store.Server.peek replica "k"));
  Engine.run eng;
  Alcotest.(check (option (option string)))
    "replica applied before the ack" (Some (Some "v")) !seen

let test_replica_crash_mid_write_detaches () =
  let eng, primary, replica, db1_addr, _, app = replicated_setup () in
  let client = Store.Client.create app ~server:db1_addr in
  (* Under the calibrated cost model the primary finishes a single write
     around 1 ms and the replica's apply completes about 1 ms after that;
     crash the replica in between, so it is found dead exactly when the
     primary is waiting on it. The write must still be acknowledged
     (replica detached), not wedge forever. *)
  ignore
    (Engine.schedule_after eng (Time.us 1_500) (fun () ->
         Store.Server.crash replica));
  let first = ref None in
  Store.Client.set client [ ("k1", "v1") ] (fun r -> first := Some r);
  Engine.run eng;
  (match !first with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write should complete despite the dead replica");
  checkb "crashed replica lost its RAM" true
    (Store.Server.peek replica "k1" = None);
  let second = ref None in
  Store.Client.set client [ ("k2", "v2") ] (fun r -> second := Some r);
  Engine.run eng;
  (match !second with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "later writes must not wedge");
  checkb "primary holds both writes" true
    (Store.Server.peek primary "k1" = Some "v1"
    && Store.Server.peek primary "k2" = Some "v2")

let test_promotion_after_primary_death () =
  let eng, primary, replica, db1_addr, db2_addr, app =
    replicated_setup ~cost:Store.free_cost_model ()
  in
  let client =
    Store.Client.create ~replica:db2_addr ~retry:Rpc.retry_policy app
      ~server:db1_addr
  in
  let ok label r =
    match r with
    | Ok _ -> ()
    | Error `Timeout -> Alcotest.fail (label ^ " timed out")
  in
  Store.Client.set client ~timeout:(Time.sec 1) [ ("k1", "v1") ] (ok "k1");
  Engine.run eng;
  Store.Server.crash primary;
  Store.Server.promote replica;
  let k2_done = ref false and k3_done = ref false in
  Store.Client.set client ~timeout:(Time.sec 1) [ ("k2", "v2") ] (fun r ->
      ok "k2" r;
      checkb "per-client FIFO across failover" false !k3_done;
      k2_done := true);
  Store.Client.set client ~timeout:(Time.sec 1) [ ("k3", "v3") ] (fun r ->
      ok "k3" r;
      k3_done := true);
  Engine.run eng;
  checkb "both post-crash writes landed" true (!k2_done && !k3_done);
  checkb "client failed over" true (Store.Client.failed_over client);
  checkb "replica has pre-crash and post-failover writes" true
    (Store.Server.peek replica "k1" = Some "v1"
    && Store.Server.peek replica "k2" = Some "v2"
    && Store.Server.peek replica "k3" = Some "v3")

(* --- Properties --------------------------------------------------------- *)

let prop_set_get_roundtrip =
  QCheck.Test.make ~name:"set/get roundtrip for arbitrary pairs" ~count:50
    QCheck.(
      list_of_size
        Gen.(int_range 1 20)
        (pair (string_of_size Gen.(int_range 1 30)) string))
    (fun pairs ->
      let eng, _, client, _ = setup ~cost:Store.free_cost_model () in
      let ok = ref false in
      Store.Client.set client pairs (fun _ ->
          let keys = List.map fst pairs in
          Store.Client.get client keys (fun r ->
              match r with
              | Ok vs ->
                  (* Last write wins per duplicate key. *)
                  let expected k =
                    List.fold_left
                      (fun acc (k', v) -> if k' = k then Some v else acc)
                      None pairs
                  in
                  ok :=
                    List.for_all (fun (k, v) -> v = expected k) vs
              | Error _ -> ()));
      Engine.run eng;
      !ok)

let prop_latency_monotone_in_batch =
  QCheck.Test.make ~name:"batched write latency is monotone in size" ~count:10
    QCheck.(pair (int_range 1 200) (int_range 1 200))
    (fun (a, b) ->
      let small = min a b and large = max a b in
      let eng, _, client, _ = setup () in
      let t_small = timed_op eng (fun k -> write_n eng client small k) in
      let t_large = timed_op eng (fun k -> write_n eng client large k) in
      t_small <= t_large +. 1e-9)

let () =
  Alcotest.run "store"
    [
      ( "semantics",
        [
          Alcotest.test_case "set/get" `Quick test_set_get;
          Alcotest.test_case "overwrite accounting" `Quick
            test_overwrite_accounting;
          Alcotest.test_case "del" `Quick test_del;
          Alcotest.test_case "scan" `Quick test_scan;
          Alcotest.test_case "single-client ordering" `Quick
            test_ordering_single_client;
        ] );
      ( "latency",
        [
          Alcotest.test_case "single ops" `Quick test_latency_single_ops;
          Alcotest.test_case "small batches" `Quick test_latency_small_batches;
          Alcotest.test_case "large batches" `Quick test_latency_large_batches;
          Alcotest.test_case "batching beats singles" `Quick
            test_latency_batching_beats_singles;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica receives writes" `Quick
            test_replica_receives_writes;
          Alcotest.test_case "same-node replica rejected" `Quick
            test_replica_same_node_rejected;
          Alcotest.test_case "down server times out" `Quick
            test_server_down_times_out;
          Alcotest.test_case "reboot keeps RAM state" `Quick
            test_server_recovers_after_reboot;
          Alcotest.test_case "ack only after replica apply" `Quick
            test_replica_ack_after_apply;
          Alcotest.test_case "replica crash mid-write detaches" `Quick
            test_replica_crash_mid_write_detaches;
          Alcotest.test_case "promotion after primary death" `Quick
            test_promotion_after_primary_death;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_set_get_roundtrip; prop_latency_monotone_in_batch ] );
    ]
