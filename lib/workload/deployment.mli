(** The two-year adoption and downtime model (Figure 7(b)).

    Reproduces the operational timeline of §4.4 as a monthly series from
    January 2020 to December 2022: TENSOR covers 0 ASes until June 2020,
    holds an initial 100-AS pilot for several months, then ramps to all
    enterprise ASes by the end of 2021 and stays full through 2022 while
    the update frequency triples.

    Monthly impacted traffic combines failure downtime and
    update-window downtime over the uncovered fraction of links, using
    the paper's constants: ~34 TB/month impacted before deployment, an
    average of 37 Gbps (277 GB per downtime-minute), and zero downtime on
    TENSOR-covered links. *)

type month = {
  year : int;
  month : int;  (** 1–12. *)
  ases_on_tensor : int;
  total_ases : int;
  update_frequency : float;  (** Relative to the 2020 baseline (1.0–3.0). *)
  impacted_tb : float;  (** Traffic impacted by downtime that month. *)
}

val series : rng:Sim.Rng.t -> month list
(** The 36-month series over 6000 peering ASes, with a 100-AS pilot and
    ~34 TB/month impacted before TENSOR. [rng] adds ±10 % monthly noise
    to the impacted volume. *)

val label : month -> string
(** ["2020-06"]-style label. *)
