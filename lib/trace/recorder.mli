(** The causal event recorder.

    Attaches to the engine's observer slot ([Sim.Engine.attach]) and
    records every dispatched event as
    a DAG node: its id, causal parent (the event executing when it was
    scheduled, [-1] for events scheduled from harness code), attribution
    label, enqueue instant and execution instant. Engines are assigned
    {e track} numbers in first-seen order, so a multi-engine experiment
    keeps per-engine event ids unambiguous.

    When a dispatch returns, it binds each bus entry appended during
    the dispatch to the event that emitted it — the raw material for
    {!Critical} path extraction ("which event chain emitted the entry
    that closed the failover phase?").

    The recorder is strictly observation-only, like [Prof.Profiler]:
    attaching it must leave replay digests byte-identical. It never
    touches simulation state, telemetry, or engine RNGs. *)

type node = {
  id : int;  (** engine scheduling sequence number, unique per track *)
  parent : int;  (** causal parent id, [-1] when scheduled externally *)
  track : int;  (** engine index, first-seen order *)
  label : string;  (** cost-attribution label, inherited like the cost *)
  sched_at : Sim.Time.t;  (** enqueue instant *)
  exec_at : Sim.Time.t;  (** execution instant (dwell = exec - sched) *)
}

val attach : ?limit:int -> unit -> unit
(** Attaches the engine observer. Recording stops (and {!dropped}
    counts) past [limit] nodes (default 2M, a fig5a-scale run with
    room). [limit] is a test seam: product runs keep the default, and
    test_trace lowers it to reach the cap. Existing recorded state is
    kept — call {!reset} for a fresh DAG. *)

val detach : unit -> unit
(** Detaches it. Recorded state stays readable. *)

val enabled : unit -> bool
(** [true] between {!attach} and {!detach}. *)

val reset : unit -> unit
(** Forgets all nodes, tracks, entry bindings and the drop count. *)

val node_count : unit -> int
(** Recorded nodes (excludes dropped ones). *)

val get : int -> node
(** [get i] is the [i]-th node in execution order, [0 <= i < node_count ()]. *)

val iter : (node -> unit) -> unit
(** Iterates nodes in execution order. *)

val find : track:int -> id:int -> node option
(** Point lookup by (track, event id). *)

val track_count : unit -> int

val entry_binding : int -> (int * int) option
(** [entry_binding seq] is the [(event id, track)] of the event that
    emitted the bus entry numbered [seq]; [None] when it was emitted
    outside event dispatch, before {!attach} or past the node cap.
    [seq] restarts with every [Telemetry.Control.reset], so {!reset}
    the recorder with it. *)

(** {1 Test-only} *)

val dropped : unit -> int
(** Inspection: dispatches not recorded because the node cap was reached;
    no artifact reports the count, so tests read the cap's accounting
    here. *)
