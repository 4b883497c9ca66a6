(** The global telemetry switch.

    Event recording is gated on one process-wide flag so that
    instrumented hot paths cost a single load-and-branch when telemetry
    is off (the default). Metrics registry updates are not gated: a
    counter bump is as cheap as the branch would be, and always-on
    counters match the pre-existing per-connection stats.

    Call sites that must allocate to build an event should guard with
    [if Gate.on () then ...] so the disabled path allocates nothing. *)

val on : unit -> bool
(** Whether telemetry recording is enabled. Initially [false]. *)

val set : bool -> unit
(** Enables or disables recording globally. *)
