(** Figure 7: operational quantification.

    (a) CDF of the average per-link throughput between the cloud and its
    peering ASes (mean > 37 Gbps, median 64 Mbps, > 30 % of links above
    1 Gbps); (b) TENSOR adoption and monthly impacted traffic over
    2020-01 … 2022-12. *)

type cdf_summary = {
  links : int;
  mean_bps : float;
  median_bps : float;
  frac_above_1g : float;
  cdf : (float * float) list;  (** (throughput_bps, cumulative prob). *)
}

val run_cdf : unit -> cdf_summary
(** 6000 links sampled at seed 42. *)

val print_cdf : cdf_summary -> unit

val run_timeline : unit -> Workload.Deployment.month list
(** Seed 42, like {!run_cdf}. *)

val print_timeline : Workload.Deployment.month list -> unit
