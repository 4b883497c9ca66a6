(** Per-link traffic model (Figure 7(a)).

    Tencent Cloud's links to peering ASes carry wildly heterogeneous
    traffic: the paper reports an {e average} per-link throughput above
    37 Gbps against a {e median} of only 64 Mbps, with over 30 % of links
    above 1 Gbps. A single lognormal cannot satisfy all three statistics
    simultaneously, so the model is a two-component lognormal mixture —
    a heavy "enterprise backbone" component and a light long-tail
    component — calibrated so the sampled population reproduces the
    reported mean, median and P(> 1 Gbps) (all stated as lower bounds in
    the paper). *)

val sample_population : Sim.Rng.t -> int -> float array
(** [sample_population rng n] draws [n] links: 42 % heavy (median
    4 Gbps, sigma 2.6), the rest light (median 14 Mbps, sigma 1.8). *)

val mean_bps : float array -> float
val median_bps : float array -> float
val fraction_above : float array -> float -> float

val bytes_impacted : avg_bps:float -> downtime:Sim.Time.span -> float
(** Traffic volume (bytes) affected by a link outage of the given
    duration — the paper's "a one-minute one-link downtime will impact
    277 GB of live traffic" arithmetic. *)
