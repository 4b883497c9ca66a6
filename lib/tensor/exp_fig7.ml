open Sim

type cdf_summary = {
  links : int;
  mean_bps : float;
  median_bps : float;
  frac_above_1g : float;
  cdf : (float * float) list;
}

(* Both panels draw from one fixed seed; 7(a) samples 6000 links. *)
let seed = 42

let run_cdf () =
  let links = 6000 in
  let rng = Rng.create seed in
  let pop = Workload.Traffic.sample_population rng links in
  let sorted = Array.copy pop in
  Array.sort compare sorted;
  let cdf =
    List.map
      (fun p ->
        let idx =
          min (links - 1) (int_of_float (p *. float_of_int (links - 1)))
        in
        (sorted.(idx), p))
      [ 0.1; 0.25; 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 ]
  in
  {
    links;
    mean_bps = Workload.Traffic.mean_bps pop;
    median_bps = Workload.Traffic.median_bps pop;
    frac_above_1g = Workload.Traffic.fraction_above pop 1e9;
    cdf;
  }

let print_cdf s =
  Report.section "Figure 7(a): CDF of per-link average throughput";
  Report.kv "links sampled" "%d" s.links;
  Report.kv "mean" "%s (paper: > 37 Gbps)" (Report.fbps s.mean_bps);
  Report.kv "median" "%s (paper: > 64 Mbps)" (Report.fbps s.median_bps);
  Report.kv "links above 1 Gbps" "%.1f%% (paper: > 30%%)"
    (100.0 *. s.frac_above_1g);
  Report.subsection "CDF points";
  Report.table
    ~header:[ "percentile"; "throughput" ]
    (List.map
       (fun (v, p) ->
         [ Printf.sprintf "p%.0f" (100.0 *. p); Report.fbps v ])
       s.cdf);
  Report.kv "one-minute outage on an average link" "%.0f GB impacted"
    (Workload.Traffic.bytes_impacted ~avg_bps:s.mean_bps
       ~downtime:(Time.minutes 1)
    /. 1e9);
  Report.note "paper: a one-minute one-link downtime impacts ~277 GB."

let run_timeline () =
  Workload.Deployment.series ~rng:(Rng.create seed)

let print_timeline months =
  Report.section
    "Figure 7(b): TENSOR adoption and monthly impacted traffic (2020-2022)";
  Report.table
    ~header:[ "month"; "ASes on TENSOR"; "update freq"; "impacted (TB)" ]
    (List.filter_map
       (fun (m : Workload.Deployment.month) ->
         (* Quarterly rows keep the table readable. *)
         if m.Workload.Deployment.month mod 3 = 1 then
           Some
             [
               Workload.Deployment.label m;
               Printf.sprintf "%d / %d" m.Workload.Deployment.ases_on_tensor
                 m.Workload.Deployment.total_ases;
               Printf.sprintf "%.1fx" m.Workload.Deployment.update_frequency;
               Printf.sprintf "%.1f" m.Workload.Deployment.impacted_tb;
             ]
         else None)
       months);
  Report.note
    "paper: ~34 TB/month impacted pre-deployment (before 2020-06); pilot of 100";
  Report.note
    "ASes mid-2020; full coverage (all enterprise BGP) by end of 2021; zero link";
  Report.note
    "downtime on TENSOR-covered links for two years while update frequency tripled."
