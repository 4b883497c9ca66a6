(** Run-level control: one switch, one reset, one capture and two file
    helpers. *)

val set_enabled : bool -> unit
(** Turns event and span recording on or off (see {!Gate}). *)

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
