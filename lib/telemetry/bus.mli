(** The process-wide structured-event bus.

    One append-only log per run: every entry emitted since the last
    {!clear} is kept, in [seq] order. A global sequence number totally
    orders entries across categories, including events emitted at the
    same simulated instant (emission order wins, matching the engine's
    FIFO tie-break). {!events}, {!to_jsonl} and the run digest all read
    this one log.

    Recording is gated on {!Gate}: with telemetry off, {!emit} is a
    no-op. Callers that need specific events regardless of the gate
    (experiment milestones) use {!Control.capture}. *)

type entry = { seq : int; at : Sim.Time.t; event : Event.t }

val emit : Sim.Engine.t -> Event.t -> unit
(** Appends [event] at the engine's current instant (when {!Gate.on}). *)

(** {1 Live subscribers}

    For readers that must act during the run. Callbacks are invoked
    synchronously from {!emit}, after the entry is appended, so a
    subscriber observes entries in global-sequence order interleaved
    across categories. Subscribers only fire while {!Gate.on}; they
    survive {!clear} (a new run re-observes from a fresh [seq]). A
    callback must not raise. *)

type sub

val subscribe : (entry -> unit) -> sub
(** [subscribe f] calls [f] on every new entry, of every category. *)

val unsubscribe : sub -> unit
(** Idempotent. *)

val clear : unit -> unit
(** Empties the log and restarts [seq]; the dropped entries become
    unreachable from the bus. *)

val events : unit -> entry list
(** The log, oldest first (globally ordered by [seq]). *)

type mark

val mark : unit -> mark
(** The log's current end. *)

val since : mark -> entry list
(** The entries appended after [mark] was taken, oldest first; every
    entry since the last {!clear} when that clear came after [mark]. *)

val to_jsonl : Buffer.t -> entry list -> unit
(** Appends one JSON object per entry:
    [{"seq":..,"t_ns":..,"cat":..,"ev":..,"f":{..}}]. *)
