(* Tests for the workload generators: the Figure 7(a) traffic mixture,
   prefix generation, and the Figure 7(b) deployment model. *)

open Sim

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Traffic (Fig 7a) ---------------------------------------------------- *)

let population () =
  Workload.Traffic.sample_population (Rng.create 42) 10_000

let test_traffic_mean () =
  let pop = population () in
  let mean = Workload.Traffic.mean_bps pop in
  checkb
    (Printf.sprintf "mean %.1f Gbps > 37 Gbps" (mean /. 1e9))
    true (mean > 37e9)

let test_traffic_median () =
  let pop = population () in
  let median = Workload.Traffic.median_bps pop in
  checkb
    (Printf.sprintf "median %.1f Mbps in [64, 200] Mbps" (median /. 1e6))
    true
    (median > 64e6 && median < 200e6)

let test_traffic_heavy_fraction () =
  let pop = population () in
  let frac = Workload.Traffic.fraction_above pop 1e9 in
  checkb
    (Printf.sprintf "%.1f%% above 1 Gbps (paper > 30%%)" (100. *. frac))
    true
    (frac > 0.28 && frac < 0.40)

let test_traffic_deterministic_by_seed () =
  let a = Workload.Traffic.sample_population (Rng.create 7) 100 in
  let b = Workload.Traffic.sample_population (Rng.create 7) 100 in
  checkb "same seed, same population" true (a = b)

let test_bytes_impacted () =
  (* 37 Gbps for one minute = 277.5 GB — the paper's headline number. *)
  let gb =
    Workload.Traffic.bytes_impacted ~avg_bps:37e9 ~downtime:(Time.minutes 1)
    /. 1e9
  in
  checkb (Printf.sprintf "%.0f GB ~ 277 GB" gb) true (gb > 276. && gb < 279.)

(* --- Prefixes ------------------------------------------------------------- *)

let test_prefixes_distinct () =
  let n = 50_000 in
  let pfxs = Workload.Prefixes.distinct n in
  checki "count" n (List.length pfxs);
  let tbl = Hashtbl.create n in
  List.iter
    (fun p -> Hashtbl.replace tbl (Netsim.Addr.prefix_to_string p) ())
    pfxs;
  checki "all distinct" n (Hashtbl.length tbl)

let test_prefixes_disjoint_bases () =
  let a = Workload.Prefixes.distinct 1000 in
  let b = Workload.Prefixes.distinct_from ~base:1000 1000 in
  let tbl = Hashtbl.create 2048 in
  List.iter (fun p -> Hashtbl.replace tbl (Netsim.Addr.prefix_to_string p) ()) a;
  checkb "disjoint" true
    (List.for_all
       (fun p -> not (Hashtbl.mem tbl (Netsim.Addr.prefix_to_string p)))
       b)

let test_attr_groups_cover_all_groups () =
  let rng = Rng.create 1 in
  let routes =
    Workload.Prefixes.attr_groups rng ~groups:10
      ~next_hop:(Netsim.Addr.of_string "1.1.1.1")
      1000
  in
  checki "count" 1000 (List.length routes);
  let tbl = Hashtbl.create 16 in
  List.iter (fun (_, a) -> Hashtbl.replace tbl (Bgp.Attrs.hash a) ()) routes;
  checki "every group used" 10 (Hashtbl.length tbl)

let test_attr_groups_avoid_experiment_asns () =
  (* Loop detection must never discard a group: generated paths avoid the
     64900/65xxx ranges the experiments use locally. *)
  let rng = Rng.create 1 in
  let routes =
    Workload.Prefixes.attr_groups rng ~groups:1000
      ~next_hop:(Netsim.Addr.of_string "1.1.1.1")
      1000
  in
  checkb "no local-range ASN in any path" true
    (List.for_all
       (fun (_, a) ->
         not
           (List.exists
              (fun asn -> Bgp.Attrs.path_contains a asn)
              [ 64900; 65000; 65010; 65011; 65012 ]))
       routes)

(* --- Deployment (Fig 7b) --------------------------------------------------- *)

let deployment_series () =
  Workload.Deployment.series ~rng:(Rng.create 7)

let test_deployment_span () =
  let months = deployment_series () in
  checki "36 months" 36 (List.length months);
  Alcotest.(check string)
    "starts 2020-01" "2020-01"
    (Workload.Deployment.label (List.hd months));
  Alcotest.(check string)
    "ends 2022-12" "2022-12"
    (Workload.Deployment.label (List.nth months 35))

let test_deployment_adoption_curve () =
  let months = deployment_series () in
  let get y m =
    List.find
      (fun (x : Workload.Deployment.month) ->
        x.Workload.Deployment.year = y && x.Workload.Deployment.month = m)
      months
  in
  checki "zero before the pilot" 0 (get 2020 5).Workload.Deployment.ases_on_tensor;
  checki "pilot of 100" 100 (get 2020 8).Workload.Deployment.ases_on_tensor;
  checki "full by end of 2021" 6000 (get 2021 12).Workload.Deployment.ases_on_tensor;
  checki "full through 2022" 6000 (get 2022 6).Workload.Deployment.ases_on_tensor

let test_deployment_impact_declines_to_zero () =
  let months = deployment_series () in
  let impacted y m =
    (List.find
       (fun (x : Workload.Deployment.month) ->
         x.Workload.Deployment.year = y && x.Workload.Deployment.month = m)
       months)
      .Workload.Deployment.impacted_tb
  in
  checkb "~34 TB pre-deployment" true
    (impacted 2020 3 > 30.0 && impacted 2020 3 < 38.0);
  checkb "declining during the ramp" true (impacted 2021 9 < impacted 2020 3);
  checkb "zero at full coverage" true (impacted 2022 6 < 0.01)

let test_deployment_update_frequency_triples () =
  let months = deployment_series () in
  let last = List.nth months 35 in
  checkb "frequency ~3x by the end" true
    (last.Workload.Deployment.update_frequency >= 2.8)

(* --- Properties -------------------------------------------------------------- *)

let prop_sample_positive =
  QCheck.Test.make ~name:"traffic samples are positive" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      (Workload.Traffic.sample_population rng 1).(0) > 0.0)

let prop_prefix_index_injective =
  QCheck.Test.make ~name:"prefix generator is injective" ~count:200
    QCheck.(pair (int_bound 3_000_000) (int_bound 3_000_000))
    (fun (i, j) ->
      i = j
      || not
           (Netsim.Addr.equal_prefix
              (List.hd (Workload.Prefixes.distinct_from ~base:i 1))
              (List.hd (Workload.Prefixes.distinct_from ~base:j 1))))

let () =
  Alcotest.run "workload"
    [
      ( "traffic",
        [
          Alcotest.test_case "mean above 37 Gbps" `Quick test_traffic_mean;
          Alcotest.test_case "median near 64 Mbps" `Quick test_traffic_median;
          Alcotest.test_case "heavy fraction" `Quick test_traffic_heavy_fraction;
          Alcotest.test_case "deterministic by seed" `Quick
            test_traffic_deterministic_by_seed;
          Alcotest.test_case "277 GB per downtime-minute" `Quick
            test_bytes_impacted;
        ] );
      ( "prefixes",
        [
          Alcotest.test_case "distinct" `Quick test_prefixes_distinct;
          Alcotest.test_case "disjoint bases" `Quick test_prefixes_disjoint_bases;
          Alcotest.test_case "groups covered" `Quick
            test_attr_groups_cover_all_groups;
          Alcotest.test_case "avoids experiment ASNs" `Quick
            test_attr_groups_avoid_experiment_asns;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "36-month span" `Quick test_deployment_span;
          Alcotest.test_case "adoption curve" `Quick
            test_deployment_adoption_curve;
          Alcotest.test_case "impact declines to zero" `Quick
            test_deployment_impact_declines_to_zero;
          Alcotest.test_case "update frequency triples" `Quick
            test_deployment_update_frequency_triples;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sample_positive; prop_prefix_index_injective ] );
    ]
