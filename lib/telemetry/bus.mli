(** The structured-event bus: an append-only log, one per domain.

    One log per run: every entry emitted since the last {!clear} is
    kept, in [seq] order. A sequence number totally orders entries
    across categories, including events emitted at the same simulated
    instant (emission order wins, matching the engine's FIFO
    tie-break). The log and its counter are domain-local, so each
    worker domain of a parallel campaign records its runs as a fresh
    process would. Nothing reacts to an entry as it is appended: every
    reader of a run ({!events}, {!to_jsonl}, the run digest, the
    invariant checkers) folds the log, or a {!since} slice of it.

    Recording is gated on {!Gate}: with telemetry off, {!emit} is a
    no-op. Callers that need specific events regardless of the gate
    (experiment milestones) use {!Control.capture}. *)

type entry = { seq : int; at : Sim.Time.t; event : Event.t }

val emit : Sim.Engine.t -> Event.t -> unit
(** Appends [event] at the engine's current instant (when {!Gate.on}). *)

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
