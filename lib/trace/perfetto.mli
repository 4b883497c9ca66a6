(** Perfetto / Chrome [trace_event] JSON export on simulated time.

    Renders the recorded event DAG for [ui.perfetto.dev] (or
    [chrome://tracing]): one process per engine track with one thread
    per subsystem (label prefix before the first ['.']), each dispatched
    event as a thread-scoped instant carrying its id, causal parent and
    queue dwell in [args]. The given recovery phases
    ({!Telemetry.Phase}) are overlaid as async
    ([ph:"b"]/[ph:"e"]) events on their own process, and an optional
    {!Critical.t} is rendered as a process of complete ([ph:"X"]) slices
    — one per segment, laid end to end across the phase window.

    Timestamps are the simulated clock converted to microseconds
    (fractional, the format allows floats). Wall time never appears. *)

val export : ?critical:Critical.t -> Telemetry.Phase.t list -> string
(** The trace as a JSON object
    [{"displayTimeUnit":"ms","traceEvents":[...]}]. *)
