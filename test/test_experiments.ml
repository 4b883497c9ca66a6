(* Smoke tests guarding the experiment drivers: each paper artifact's
   headline *shape* claim is asserted at reduced scale, so a regression
   that would silently corrupt the bench output fails the test suite
   instead. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let finite = List.for_all (fun v -> Float.is_finite v)

(* --- Figure 5(a) ---------------------------------------------------------- *)

let test_fig5a_shape () =
  let results =
    Tensor.Exp_fig5a.run ~packet_sizes:[ 100; 1000 ]
      ~delays_ms:[ 0.; 2.; 20.; 50. ]
      ~measure_span:(Sim.Time.ms 200) ()
  in
  checki "two series" 2 (List.length results);
  List.iter
    (fun (s : Tensor.Exp_fig5a.series) ->
      let tps = List.map (fun p -> p.Tensor.Exp_fig5a.throughput_bps) s.points in
      checkb "finite throughputs" true (finite tps);
      (* Monotone non-increasing in delay (5% tolerance for warmup). *)
      let rec mono = function
        | a :: (b :: _ as rest) -> b <= a *. 1.05 && mono rest
        | _ -> true
      in
      checkb "monotone in delay" true (mono tps))
    results;
  (* Larger packets yield higher zero-delay throughput... *)
  let base (s : Tensor.Exp_fig5a.series) =
    (List.hd s.points).Tensor.Exp_fig5a.throughput_bps
  in
  let s100 = List.nth results 0 and s1000 = List.nth results 1 in
  checkb "baseline grows with packet size" true (base s1000 > base s100);
  (* ...but a lower no-impact threshold. *)
  checkb "threshold shrinks with packet size" true
    (Tensor.Exp_fig5a.threshold_ms s1000 < Tensor.Exp_fig5a.threshold_ms s100)

(* --- Figure 5(b) ------------------------------------------------------------ *)

let test_fig5b_shape () =
  let rows = Tensor.Exp_fig5b.run ~counts:[ 1; 100; 10_000 ] () in
  List.iter
    (fun (r : Tensor.Exp_fig5b.row) ->
      checkb "write slower than read" true (r.write_ms > r.read_ms))
    rows;
  let r1 = List.nth rows 0 and r10k = List.nth rows 2 in
  checkb "single read < 0.5 ms" true (r1.Tensor.Exp_fig5b.read_ms < 0.5);
  checkb "single write ~1 ms" true
    (r1.Tensor.Exp_fig5b.write_ms > 0.5 && r1.Tensor.Exp_fig5b.write_ms < 1.5);
  checkb "10K writes ~500 ms" true
    (r10k.Tensor.Exp_fig5b.write_ms > 350. && r10k.Tensor.Exp_fig5b.write_ms < 650.)

(* --- Figure 6 ---------------------------------------------------------------- *)

let value_of (row : Tensor.Exp_fig6.sweep_row) impl =
  match List.find_opt (fun v -> v.Tensor.Exp_fig6.impl = impl) row.values with
  | Some v -> v.Tensor.Exp_fig6.seconds
  | None -> nan

let test_fig6a_ordering () =
  let rows = Tensor.Exp_fig6.run_receive ~counts:[ 20_000 ] () in
  let row = List.hd rows in
  let frr = value_of row "FRRouting"
  and gobgp = value_of row "GoBGP"
  and bird = value_of row "BIRD"
  and tensor = value_of row "TENSOR" in
  checkb "all finite" true (finite [ frr; gobgp; bird; tensor ]);
  checkb "FRR fastest" true (frr < gobgp && frr < bird && frr < tensor);
  checkb "TENSOR slowest" true (tensor > gobgp && tensor > bird);
  checkb "TENSOR overhead bounded (<2x FRR at 20K)" true (tensor < 2. *. frr)

let test_fig6b_tensor_close_to_frr () =
  let rows = Tensor.Exp_fig6.run_send ~counts:[ 20_000 ] () in
  let row = List.hd rows in
  let frr = value_of row "FRRouting" and tensor = value_of row "TENSOR" in
  checkb "TENSOR within 25% of FRR on the send path" true
    (tensor < 1.25 *. frr)

let test_fig6c_packing_factor () =
  let rows =
    Tensor.Exp_fig6.run_multi_peer ~peer_counts:[ 300 ] ()
  in
  let row = List.hd rows in
  let frr = value_of row "FRRouting" and gobgp = value_of row "GoBGP" in
  checkb
    (Printf.sprintf "GoBGP (%.3f) >= 3x FRR (%.3f) without packing" gobgp frr)
    true
    (gobgp > 3. *. frr)

let test_fig6d_linear () =
  let rows = Tensor.Exp_fig6.run_scale ~container_counts:[ 20; 40 ] () in
  let r20 = List.nth rows 0 and r40 = List.nth rows 1 in
  let ratio = r40.Tensor.Exp_fig6.memory_gb /. r20.Tensor.Exp_fig6.memory_gb in
  checkb "memory scales linearly" true (ratio > 1.9 && ratio < 2.1);
  let cratio = r40.Tensor.Exp_fig6.cpu_pct /. r20.Tensor.Exp_fig6.cpu_pct in
  checkb "cpu scales linearly" true (cratio > 1.9 && cratio < 2.1)

(* --- Table 1 ------------------------------------------------------------------ *)

(* The phase columns exactly as Table 1 prints them (detect, init,
   migrate, TCP, total): the simulation is deterministic, so any change
   in how the phases are measured shows up as a changed string. *)
let phase_strings (r : Tensor.Exp_table1.timeline) =
  String.concat " "
    (List.map (Printf.sprintf "%.2f")
       [ r.detect_s; r.initiate_s; r.migrate_s; r.tcp_s; r.total_s ])

let check_phases kind expected =
  match Tensor.Exp_table1.run ~kinds:[ kind ] () with
  | [ r ] ->
      checki "zero session drops" 0 r.Tensor.Exp_table1.peer_session_drops;
      checki "zero routes lost" 0 r.Tensor.Exp_table1.peer_routes_lost;
      Alcotest.(check string) "printed phases" expected (phase_strings r);
      r
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_table1_app_failure_row () =
  let r = check_phases Orch.Controller.App_failure "0.01 0.10 1.00 1.00 2.11" in
  checkb "detect ~10ms" true (r.Tensor.Exp_table1.detect_s < 0.1);
  checkb "total in the paper's ballpark (2.26)" true
    (r.Tensor.Exp_table1.total_s > 1.5 && r.Tensor.Exp_table1.total_s < 3.5);
  checkb "faster than the baseline" true
    (r.Tensor.Exp_table1.total_s < r.Tensor.Exp_table1.baseline_total_s)

let test_table1_other_rows () =
  List.iter
    (fun (kind, expected) -> ignore (check_phases kind expected))
    [
      (Orch.Controller.Container_failure, "0.27 0.10 1.00 1.00 2.37");
      (Orch.Controller.Host_failure, "3.58 0.20 4.40 1.00 9.18");
      (Orch.Controller.Host_network_failure, "3.58 0.20 4.40 1.00 9.18");
    ]

(* Table 1's TCP column and the health report's [tcp_replay] budget are
   one phase of the same bus entries: read both off one episode. *)
let test_table1_tcp_is_tcp_replay () =
  Telemetry.Control.reset ();
  Telemetry.Gate.set true;
  let mon =
    Monitor.Checker.install { Monitor.Checker.peers = []; ack_deadline_s = 0. }
  in
  let rows = Tensor.Exp_table1.run ~kinds:[ Orch.Controller.App_failure ] () in
  let report =
    Monitor.Health.make
      ~engine:{ Monitor.Health.ev_processed = 0; profiled = [] }
      ~scenario:"table1" mon
  in
  Telemetry.Gate.set false;
  match
    ( rows,
      List.find_opt
        (fun (s : Monitor.Health.slo) -> s.slo_name = "tcp_replay")
        report.Monitor.Health.slos )
  with
  | [ r ], Some slo ->
      checki "one TCP replay" 1 slo.instances;
      Alcotest.(check (option (float 0.)))
        "TCP column = tcp_replay budget's actual" (Some r.Tensor.Exp_table1.tcp_s)
        slo.actual_s
  | _, None -> Alcotest.fail "no tcp_replay budget in the report"
  | rows, _ -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

(* --- Multi-AS parallelism ------------------------------------------------------- *)

let test_multias_speedup () =
  let r = Tensor.Exp_parallel.run ~ases:5 () in
  checkb "finite" true
    (finite [ r.Tensor.Exp_parallel.monolithic_s; r.Tensor.Exp_parallel.containerized_s ]);
  checkb "containerized faster" true
    (r.Tensor.Exp_parallel.containerized_s < r.Tensor.Exp_parallel.monolithic_s)

(* --- Figure 7(a) ------------------------------------------------------------------ *)

let test_fig7a_statistics () =
  let s = Tensor.Exp_fig7.run_cdf () in
  checkb "mean > 37 Gbps" true (s.Tensor.Exp_fig7.mean_bps > 37e9);
  checkb "median > 64 Mbps" true (s.Tensor.Exp_fig7.median_bps > 64e6);
  checkb "over 30% above 1 Gbps" true (s.Tensor.Exp_fig7.frac_above_1g > 0.30);
  (* CDF values are sorted in probability and value. *)
  let rec sorted = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
        v1 <= v2 && p1 <= p2 && sorted rest
    | _ -> true
  in
  checkb "CDF monotone" true (sorted s.Tensor.Exp_fig7.cdf)

(* --- Table 2 ---------------------------------------------------------------------- *)

let test_table2_ratios () =
  let find n =
    List.find (fun (s : Tensor.Exp_table2.solution) -> s.name = n)
      Tensor.Exp_table2.rows
  in
  let nsr = find "NSR-enabled router" and tensor = find "TENSOR" in
  checkb "20x dev labor" true
    (match (nsr.dev_labor_man_months, tensor.dev_labor_man_months) with
    | Some a, Some b -> a / b = 20
    | _ -> false);
  checki "5x deployment" 5 (nsr.deployment_cost_usd / tensor.deployment_cost_usd);
  checki "11x maintenance" 11
    (nsr.maintenance_mh_per_month / tensor.maintenance_mh_per_month)

(* --- Deployment scale ----------------------------------------------------------- *)

let test_scale_host_loss () =
  let r = Tensor.Exp_scale.run ~hosts:3 ~services:6 ~routes_per_service:50 in
  checki "no peer saw a drop" 0 r.Tensor.Exp_scale.peer_drops;
  checkb "the host loss migrated services" true
    (r.Tensor.Exp_scale.host_failure_migrated >= 1)

(* --- Registry ------------------------------------------------------------------ *)

let test_registry_ids () =
  let ids = Tensor.Experiments.ids in
  Alcotest.(check (list string))
    "tensor-cli list order"
    [ "fig5a"; "fig5b"; "fig6a"; "fig6b"; "fig6c"; "fig6d"; "table1";
      "multias"; "scale"; "ablations"; "fig7a"; "fig7b"; "table2" ]
    ids;
  checki "unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* The engine flag decides whether a bench snapshot reports event
   throughput, so it must match what a quick run actually dispatches. *)
let test_registry_engine_flag () =
  let advances id =
    let e = Option.get (Tensor.Experiments.find id) in
    let before = Sim.Engine.global_processed_events () in
    e.Tensor.Experiments.run ~quick:true;
    (e.Tensor.Experiments.engine, Sim.Engine.global_processed_events () > before)
  in
  List.iter
    (fun id ->
      let flag, moved = advances id in
      checkb (id ^ " flagged engine-free") false flag;
      checkb (id ^ " dispatched no events") false moved)
    [ "fig7a"; "fig7b"; "table2" ];
  let flag, moved = advances "fig5b" in
  checkb "fig5b flagged engine" true flag;
  checkb "fig5b dispatched events" true moved

let () =
  Alcotest.run "experiments"
    [
      ( "fig5",
        [
          Alcotest.test_case "5a shape" `Slow test_fig5a_shape;
          Alcotest.test_case "5b shape" `Quick test_fig5b_shape;
        ] );
      ( "fig6",
        [
          Alcotest.test_case "6a ordering" `Slow test_fig6a_ordering;
          Alcotest.test_case "6b tensor ~ frr" `Slow
            test_fig6b_tensor_close_to_frr;
          Alcotest.test_case "6c packing factor" `Slow test_fig6c_packing_factor;
          Alcotest.test_case "6d linear" `Quick test_fig6d_linear;
        ] );
      ( "table1",
        [
          Alcotest.test_case "app failure row" `Quick test_table1_app_failure_row;
          Alcotest.test_case "other failure rows" `Quick test_table1_other_rows;
          Alcotest.test_case "TCP column is the tcp_replay budget" `Quick
            test_table1_tcp_is_tcp_replay;
        ] );
      ( "multias",
        [ Alcotest.test_case "parallel speedup" `Slow test_multias_speedup ] );
      ( "fig7",
        [ Alcotest.test_case "7a statistics" `Quick test_fig7a_statistics ] );
      ( "table2", [ Alcotest.test_case "ratios" `Quick test_table2_ratios ] );
      ( "scale",
        [ Alcotest.test_case "host loss is invisible" `Quick test_scale_host_loss ] );
      ( "registry",
        [
          Alcotest.test_case "ids" `Quick test_registry_ids;
          Alcotest.test_case "engine flag" `Quick test_registry_engine_flag;
        ] );
    ]
