(** Per-event-kind cost accounting on the [Sim.Engine] observer slot.

    While attached, every event of every engine on the calling domain
    books its wall time, allocation delta and simulated queue dwell
    against its attribution label. The profiler is observation-only: it
    never reads or writes simulation state, telemetry, or the engine
    RNG, so replay digests are byte-identical whether it is attached or
    not. The measurement overhead (two clock reads per event) is
    included in each wall sample. Allocation is every byte the event
    allocates, exact: young words and blocks too large for the minor
    heap (over 256 words), which go straight to the major heap, less the
    profiler's own reads; zero for an event that allocates nothing. *)

type stat = {
  label : string;
  mutable events : int;
  mutable wall_s : float;
  mutable alloc_bytes : float;
  mutable dwell_s : float;
      (** Total simulated time events of this label spent enqueued
          before dispatch — the event-queue scheduling latency. *)
  mutable dwell_max_s : float;
}

val attach : unit -> unit
(** Clears accumulated samples and attaches the engine observer. *)

val detach : unit -> unit
(** Detaches the observer; accumulated samples remain readable. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Clears accumulated samples without touching the observer. *)

val stats : unit -> stat list
(** All rows, sorted by label (deterministic output order). *)

val by_wall : unit -> stat list
(** All rows, costliest wall time first (ties by label). *)

val total_wall_s : unit -> float

val allocated_bytes : unit -> float
(** Bytes the calling domain has allocated so far, minor and major heap
    (minor + major - promoted words). The difference of two reads is
    what ran between them allocated, plus a constant: the first read's
    own result. Unlike [Gc.allocated_bytes] on OCaml 5.1, it counts
    every young word. *)

val cost_table : unit -> string
(** The rows as a text table, costliest wall time first ([engine_cost.txt]
    under every [--out]): per label, events, wall milliseconds, wall
    share, bytes per event, mean and maximum simulated dwell, and the
    exact allocated bytes. The header line carries the totals. *)

(** {1 Test-only} *)

val total_events : unit -> int
(** Inspection: events dispatched while attached, so tests check that
    the profiler saw every dispatch. *)
