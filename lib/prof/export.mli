(** Flamegraph-ready exports of a profiled run.

    Folded stacks ("a;b;c <weight>" — the input [flamegraph.pl] takes)
    and speedscope JSON, built from the profiler's per-label rows (wall
    microseconds and allocated bytes, rooted at ["engine"]) and from the
    run's {!Telemetry.Span} trees (self time in simulated microseconds).
    All outputs are sorted by stack, so identical runs export
    byte-identical span profiles. *)

type folded = (string * int) list
(** [(stack, weight)] where [stack] is [";"]-joined frame names. *)

val write_dir : name:string -> string -> unit
(** [write_dir ~name dir] writes the run's five profile files into [dir]
    (created with its parents if missing): [engine_cost.txt] (the
    profiler's rows as a text table, costliest wall time first),
    [engine.folded], [engine_allocs.folded] and [spans.folded] (folded
    stacks weighted by wall microseconds, allocated bytes and span self
    time), and [profile.speedscope.json] (those three views as one
    speedscope document, titled [name]). *)
