(** Table 2: summary of BGP solutions — failure recovery class,
    development costs, code size, deployment and maintenance costs.

    This is the paper's operational cost model, reproduced as structured
    data with the derived ratios (development ÷20, deployment ÷5,
    maintenance ÷10 versus NSR-enabled routers) computed rather than
    asserted. *)

type solution = {
  name : string;
  recovery : string;
  dev_time_months : (int * int) option;  (** (min, max); None = n/a. *)
  dev_labor_man_months : int option;
  loc : string;
  deployment_cost_usd : int;
  maintenance_mh_per_month : int;
}

val print : unit -> unit

(** {1 Test-only} *)

val rows : solution list
(** Inspection: the table as data, so tests check its ratios without
    parsing the printed table. *)
