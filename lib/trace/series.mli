(** Simulated-time metric series.

    A windowed sampler that snapshots the metrics registry every
    simulated second into JSONL rows — convergence curves for fig6 /
    scale experiments, instead of end-of-run totals.

    Implemented as an observer in the engine's observer slot
    ({!Sim.Engine.attach}), so it sees every dispatch on the calling
    domain and never schedules events — an [Engine.every] timer would
    perturb event counts and replay digests, and keep [Engine.run] from
    terminating. When a dispatched event's instant crosses one or more
    window boundaries, one row per owed boundary is emitted before the
    event runs, stamped with the {e boundary} time; long quiet gaps emit
    a single stale row and skip the empty windows. An event whose
    simulated time runs backwards starts a new [run] (experiments build
    fresh engines); {!detach} flushes a final row so sub-window runs
    still produce data. *)

type t

val attach : unit -> t
(** Attaches a sampler to the calling domain's engine observer slot. *)

val detach : t -> unit
(** Detaches and flushes a final partial-window row if any event was
    dispatched since the last boundary. The buffer stays readable. *)

val to_jsonl : t -> string
(** One row per sample:
    [{"run":..,"t_ns":..,"metrics":{"name":value,..}}] — counters as
    ints, gauges as floats, histograms as [name.count] / [name.sum]. *)
