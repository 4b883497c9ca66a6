(** Run-level control: one reset, one capture and two file helpers.
    Recording is switched on and off with {!Gate.set}. *)

val reset : unit -> unit
(** Empties the bus log and zeroes all registered metric
    values. Registrations survive. Call between independent runs. *)

val capture : (unit -> 'a) -> 'a * Bus.entry list
(** [capture f] runs [f] with recording switched on and returns its
    result with the slice of the bus log appended during the call, in
    [seq] order. The previous gate state is restored afterwards, even
    when [f] raises. The log and metric values are left alone, so an
    enclosing run keeps every entry of [f] and its export sees the run
    as usual. Experiments use it to read a recovery's milestones off the
    bus ({!Phase.of_entries}). *)

val mkdir_p : string -> unit
(** Creates the directory and any missing parents ([mkdir -p]). *)

val write_file : string -> string -> unit
(** [write_file path content] replaces [path]'s contents. *)
