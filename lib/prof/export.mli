(** Flamegraph-ready exports of a profiled run.

    Folded stacks ("a;b;c <weight>" — the input [flamegraph.pl] takes)
    and speedscope JSON, built from the profiler's per-label rows (wall
    microseconds and allocated bytes, rooted at ["engine"]) and from the
    run's {!Telemetry.Span} trees (self time in simulated microseconds).
    All outputs are sorted by stack, so identical runs export
    byte-identical span profiles. *)

type folded = (string * int) list
(** [(stack, weight)] where [stack] is [";"]-joined frame names. *)

val folded_wall : unit -> folded
(** Profiler rows weighted by wall microseconds. *)

val folded_alloc : unit -> folded
(** Profiler rows weighted by allocated bytes. *)

val folded_spans : unit -> folded
(** Closed telemetry spans, weighted by self simulated-microseconds
    (duration minus closed children). *)

val folded_to_string : folded -> string

val speedscope :
  name:string -> (string * string * folded) list -> string
(** [speedscope ~name profiles] renders [(profile_name, unit, entries)]
    lists as one speedscope JSON document with a shared frame table. *)

val standard_profiles : unit -> (string * string * folded) list
(** The three standard views: engine wall, engine allocations, spans. *)

val write_dir : name:string -> string -> unit
(** [write_dir ~name dir] writes the run's four profile files into [dir]
    (created with its parents if missing): [engine.folded],
    [engine_allocs.folded] and [spans.folded] ({!folded_wall},
    {!folded_alloc}, {!folded_spans}), and [profile.speedscope.json]
    ({!standard_profiles}, titled [name]). *)
