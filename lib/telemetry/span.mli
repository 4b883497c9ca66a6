(** Causal spans over simulated time.

    A span is a named interval [(start_at, stop_at)] with an optional
    parent, forming trees like [failover ⊃ bfd_detect ⊃ tcp_replay].
    Subsystems that cannot know their causal parent (a BFD session
    noticing silence, a replicator catching up) attach to the {e
    ambient} span, which the orchestration layer sets when it starts a
    root span (failure injection) and clears when the root finishes.

    Collection is gated on {!Gate}: when telemetry is off, {!start}
    returns {!none} and every operation on it is a no-op. Orphans are
    harmless by construction — finishing an unknown or already-finished
    id does nothing, and spans never finished export with a null stop. *)

type id = int

val none : id
(** The inert span id returned when telemetry is disabled. *)

type span = {
  sid : id;
  name : string;
  parent : id option;
  start_at : Sim.Time.t;
  mutable stop_at : Sim.Time.t option;
}

val start : Sim.Engine.t -> string -> id
(** Opens a span at the current instant, under the ambient span (if
    any). *)

val finish : Sim.Engine.t -> id -> unit
(** Closes a span at the current instant. Unknown / already-closed /
    {!none} ids are ignored. *)

val add :
  Sim.Engine.t -> string -> start_at:Sim.Time.t -> stop_at:Sim.Time.t -> id
(** Records a retroactively-observed span (e.g. BFD detection, whose
    start is the last control packet heard), under the ambient span (if
    any). *)

val set_ambient : id option -> unit
val ambient : unit -> id option

(** {2 Finish hook}

    One process-global observation hook, installed by [Causal.Recorder]
    to bind span ends to the engine events that produced them (via
    [Sim.Engine.current_event_id]). It fires when an open span is
    closed by {!finish}, and when a retroactive span is recorded by
    {!add}; never for the inert {!none} id. The hook must be
    transparent: it may not create, mutate, or finish spans, nor touch
    telemetry. *)

type hook = id -> Sim.Engine.t -> unit

val set_hook : hook option -> unit
(** Installs (or clears, with [None]) the finish hook. *)

val spans : unit -> span list
(** All recorded spans, in creation order. *)

val find : name:string -> span list
(** Spans with the given name, in creation order. *)

val clear : unit -> unit
(** Forgets all spans and clears the ambient span. *)

val to_jsonl : Buffer.t -> unit
(** One JSON object per span:
    [{"id":..,"parent":..,"name":..,"start_ns":..,"stop_ns":..,"dur_ns":..}]. *)

(** {1 Test-only} *)

val children : id -> span list
(** Inspection: a span's recorded children, so tests check the tree a
    failover builds. *)

val roots : unit -> span list
(** Inspection: spans whose parent is absent or was never recorded. *)
