(** The registry of paper experiments.

    One entry per evaluation artifact (Fig. 5–7, Tables 1–2, and the
    §4.2/§4.4 and ablation side experiments), holding the one definition
    of its quick and full parameters. [tensor-cli experiment|list]
    dispatches through it; no other front-end keeps a second table. *)

type t = {
  id : string;  (** Command-line id, e.g. ["fig6a"]. *)
  engine : bool;
      (** [true] when a run dispatches simulator events; [false] for the
          analytic and workload-model artifacts, whose event-throughput
          figures would be a meaningless zero. *)
  run : quick:bool -> unit;
      (** Runs the experiment and prints its section; [~quick] selects
          the reduced parameter ranges. *)
}

val ids : string list
(** [List.map (fun e -> e.id) all]. *)

val find : string -> t option
