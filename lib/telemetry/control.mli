(** Run-level control: one switch, one reset, one export. *)

val set_enabled : bool -> unit
(** Turns event and span recording on or off (see {!Gate}). *)

val enabled : unit -> bool

val set_bus_capacity : ?category:Event.category -> int -> unit
(** Sizes the event-bus rings. Without [?category], sets the global
    per-category capacity (clearing all buffers and overrides, see
    {!Bus.set_capacity}); with it, overrides just that category's ring
    (see {!Bus.set_category_capacity}). Trace-heavy runs (e.g. fig5a
    with the causal tracer attached) size up the chatty categories so
    [telemetry.bus_dropped] stays 0. *)

val reset : unit -> unit
(** Clears buffered events and spans and zeroes all registered metric
    values. Registrations survive. Call between independent runs. *)

val capture : ?category:Event.category -> (unit -> 'a) -> 'a * Bus.entry list
(** [capture ?category f] runs [f] with recording switched on and
    returns its result with every bus entry of [category] (all
    categories when omitted) emitted during the call, in [seq] order.
    The previous gate state is restored afterwards, even when [f]
    raises. Buffered rings, spans and metric values are left alone, so
    an enclosing export sees the run as usual. Experiments use it to
    read phase milestones (e.g. Table 1's [Orch] events) off the bus. *)

val mkdir_p : string -> unit
(** Creates the directory and any missing parents ([mkdir -p]). *)

val write_file : string -> string -> unit
(** [write_file path content] replaces [path]'s contents. *)

val export_dir : string -> unit
(** Writes [metrics.csv], [metrics.json], [events.jsonl] and
    [spans.jsonl] into the directory, creating it if needed. *)
