(** The process-wide structured-event bus.

    One bounded ring buffer per {!Event.category}: when a category's
    buffer is full the oldest entry is overwritten (and counted in
    {!dropped_total}), so a long run can keep telemetry on without unbounded
    memory. A global sequence number totally orders entries across
    categories, including events emitted at the same simulated instant
    (emission order wins, matching the engine's FIFO tie-break).

    Recording is gated on {!Gate}: with telemetry off, {!emit} is a
    no-op. Callers that need specific events regardless of the gate
    (experiment milestones) use {!Control.capture}. *)

type entry = { seq : int; at : Sim.Time.t; event : Event.t }

val emit : Sim.Engine.t -> Event.t -> unit
(** Records [event] at the engine's current instant (when {!Gate.on}). *)

(** {1 Live subscribers}

    Callbacks invoked synchronously from {!emit}, after the entry is
    buffered, so a subscriber observes entries in global-sequence order
    interleaved across categories. Subscribers only fire while
    {!Gate.on}; they survive {!clear} (a new run re-observes from a
    fresh [seq]). A callback must not raise. *)

type sub

val subscribe : (entry -> unit) -> sub
(** [subscribe f] calls [f] on every new entry, of every category. *)

val unsubscribe : sub -> unit
(** Idempotent. *)

val dropped_total : unit -> int
(** Events lost to overwrite across all categories since the last
    {!clear}. Overflow is also observable in the metrics registry: the
    [telemetry.bus_dropped] counter (survives {!clear}) and per-category
    [telemetry.ring_hwm.<cat>] high-water occupancy gauges. *)

val clear : unit -> unit
(** Drops all buffered entries and resets counters. *)

val to_jsonl : Buffer.t -> unit
(** Appends one JSON object per buffered entry:
    [{"seq":..,"t_ns":..,"cat":..,"ev":..,"f":{..}}]. *)

val events : unit -> entry list
(** Buffered entries, oldest first (globally ordered by [seq]), as
    values; {!to_jsonl} exports the same entries as text. *)

(** {1 Test-only} *)

val subscriber_count : unit -> int
(** Inspection: number of live subscriptions, so tests check that
    {!Control.capture} releases its own. *)

val set_capacity : int -> unit
(** Kept: per-category ring capacity (default 8192); clears all buffers.
    Tests shrink the rings to make overwrites happen. *)
