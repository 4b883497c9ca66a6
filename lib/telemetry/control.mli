(** Run-level control: one reset, one capture and two file helpers.
    Recording is switched on and off with {!Gate.set}. *)

val reset : unit -> unit
(** Clears buffered events and zeroes all registered metric
    values. Registrations survive. Call between independent runs. *)

val capture : (unit -> 'a) -> 'a * Bus.entry list
(** [capture f] runs [f] with recording switched on and returns its
    result with every bus entry emitted during the call, in [seq] order.
    The previous gate state is restored afterwards, even when [f]
    raises. Buffered rings and metric values are left alone, so an
    enclosing export sees the run as usual. Experiments use it to read
    a recovery's milestones off the bus ({!Phase.of_entries}), and the
    fleet campaign reads its SLO report through it, since a large fleet
    overruns the rings. *)

val mkdir_p : string -> unit
(** Creates the directory and any missing parents ([mkdir -p]). *)

val write_file : string -> string -> unit
(** [write_file path content] replaces [path]'s contents. *)
