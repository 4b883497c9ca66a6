(** Run-level control: one switch, one reset, one capture and two file
    helpers. *)

val set_enabled : bool -> unit
(** Turns event recording on or off (see {!Gate}). *)

val reset : unit -> unit
(** Clears buffered events and zeroes all registered metric
    values. Registrations survive. Call between independent runs. *)

val capture : (unit -> 'a) -> 'a * Bus.entry list
(** [capture f] runs [f] with recording switched on and returns its
    result with every bus entry emitted during the call, in [seq] order.
    The previous gate state is restored afterwards, even when [f]
    raises. Buffered rings and metric values are left alone, so an
    enclosing export sees the run as usual. Experiments use it to read
    a recovery's milestones off the bus ({!Phase.of_entries}). *)

val mkdir_p : string -> unit
(** Creates the directory and any missing parents ([mkdir -p]). *)

val write_file : string -> string -> unit
(** [write_file path content] replaces [path]'s contents. *)
