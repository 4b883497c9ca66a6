(** Simulated-time metric series.

    A windowed sampler that snapshots the metrics registry every
    simulated second into JSONL rows — convergence curves for fig6 /
    scale experiments, instead of end-of-run totals.

    Implemented as a firehose {!Telemetry.Bus} subscriber (so it only
    observes while telemetry is enabled and never schedules events —
    an [Engine.every] timer would perturb event counts and replay
    digests, and keep [Engine.run] from terminating). When an observed
    entry crosses one or more window boundaries, one row per owed
    boundary is emitted, stamped with the {e boundary} time; long quiet
    gaps emit a single stale row and skip the empty windows. An entry whose simulated time runs backwards
    starts a new [run] (experiments build fresh engines); {!detach}
    flushes a final row so sub-window runs still produce data. *)

type t

val attach : ?select:(string -> bool) -> unit -> t
(** Subscribes a sampler to the bus firehose. [select] filters metric
    names (default: keep all). *)

val detach : t -> unit
(** Unsubscribes and flushes a final partial-window row if any entries
    were observed since the last boundary. The buffer stays readable. *)


val to_jsonl : t -> string
(** One row per sample:
    [{"run":..,"t_ns":..,"metrics":{"name":value,..}}] — counters as
    ints, gauges as floats, histograms as [name.count] / [name.sum]. *)
