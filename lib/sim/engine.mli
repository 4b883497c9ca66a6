(** The discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Callbacks scheduled
    at future instants run in nondecreasing time order; events at the same
    instant run in scheduling order (FIFO), which makes runs fully
    deterministic. The queue keeps events due soon (packet hops) apart
    from timers, but the next event is always the earliest by (instant,
    scheduling order) across both, so the split never changes order.
    All simulated subsystems (links, TCP, BGP timers, the orchestrator)
    are driven by one engine.

    The engine is single-threaded by design: concurrency in the modelled
    system (threads of a BGP process, containers on many hosts) is
    expressed as interleaved events, never as OS threads. *)

type t

type handle
(** A cancellable reference to a scheduled event. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh engine with the clock at {!Time.zero} and
    a deterministic RNG seeded with [seed] (default 42). *)

val now : t -> Time.t
(** The current simulated instant. *)

val rng : t -> Rng.t
(** The engine's root RNG. Subsystems should {!Rng.split} it. *)

val schedule_after : t -> ?label:string -> Time.span -> (unit -> unit) -> handle
(** [schedule_after t ?label span f] runs [f] [span] after the current
    instant. Raises [Invalid_argument] on a negative span.

    [label] attributes the event's cost to a subsystem ("tcp.rto",
    "net.link", …) for the profiler. Omitted, the event inherits
    {!current_label} — the label of the event being executed right now —
    so labelling a subsystem's entry points attributes its whole event
    cascade. Labels never influence execution, only attribution. *)

val schedule_at : t -> ?label:string -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t ?label instant f] runs [f] at [instant]. An instant
    in the past is an [Invalid_argument]. [label] as in
    {!schedule_after}. *)

val current_event_id : t -> int
(** The id of the event this engine is executing right now, or [-1]
    outside event dispatch (before the first event, between [run]
    segments, and after the queue drains). Event ids are the engine's
    scheduling sequence numbers: unique per engine, assigned in
    scheduling order. *)

val next_id : t -> int
(** The id the next scheduled event will take. Every event scheduled
    from now on has an id at least this, and every event already
    scheduled has a smaller one. *)

val cancel : handle -> unit
(** Cancels a scheduled event. Cancelling an already-fired or cancelled
    event is a no-op. *)

val run : t -> unit
(** Runs events until the queue is empty. *)

val run_until : t -> Time.t -> unit
(** [run_until t limit] runs all events with time [<= limit], then
    advances the clock to exactly [limit]. Events scheduled beyond [limit]
    remain queued. *)

val run_for : t -> Time.span -> unit
(** [run_for t span] is [run_until t (now t + span)]. *)

val run_until_cond :
  t -> slice:Time.span -> deadline:Time.t -> (unit -> bool) -> bool
(** [run_until_cond t ~slice ~deadline cond] polls [cond], running the
    engine one [slice] at a time (never past [deadline]) until [cond]
    holds or the clock reaches [deadline]. Returns whether [cond] held.
    The clock stops on a slice boundary, so the slice length is part of
    a caller's simulated output. *)

val pending_events : t -> int
(** Number of live (non-cancelled) queued events. An armed {!deadline}
    counts as one. *)

val processed_events : t -> int
(** Total number of events executed so far. *)

val global_processed_events : unit -> int
(** Events executed by every engine created on the calling domain, ever
    — a monotonic throughput meter for harnesses whose experiments build
    engines internally. Domain-local: each worker of a parallel campaign
    meters (and resets with) its own engines. *)

(** {2 Observer slot}

    One slot per domain, shared by every engine created on that domain,
    holding any number of observers ([Prof.Profiler],
    [Causal.Recorder], a benchmark meter). Every event dispatch calls
    each observer's [before] with the event's id, the id of the event
    that scheduled it ([-1] when scheduled from outside dispatch, e.g.
    harness setup code), its attribution label, and its enqueue and
    execution instants (dwell = exec - sched); then the action runs;
    then each [after] (not when the action raises: that ends the run).
    The newest observer is outermost: its [before] runs first and its
    [after] last. Causal parentage mirrors label inheritance: the parent
    is the event executing at scheduling time. Observers see dispatches in the
    engine's one dispatch order — nondecreasing instant, scheduling
    order among same-instant events — whichever queue tier held each
    event. Dispatch does not nest, so an observer may keep the state of
    the running event between [before] and [after].

    Observers must be transparent: no simulation state, telemetry, or
    RNG access — replay digests are byte-identical with any set
    attached. The slot allocates nothing per dispatch. *)

type trace_hook =
  eng:t ->
  id:int ->
  parent:int ->
  label:string ->
  sched_at:Time.t ->
  exec_at:Time.t ->
  unit

type observer = { before : trace_hook; after : unit -> unit }

val attach : observer -> unit
(** Adds an observer to the calling domain's slot. *)

val detach : observer -> unit
(** Removes an observer (compared physically); a no-op when absent. *)

val set_trace_hook : trace_hook option -> unit
(** Replaces the one observer this function attached, if any, with
    [{ before = hook; after = ignore }] ([None]: with nothing). Other
    observers stay attached. *)

(** {2 Periodic timers} *)

type timer
(** A repeating timer. *)

val every : t -> ?label:string -> ?jitter:float -> Time.span -> (unit -> unit) -> timer
(** [every t ~jitter period f] runs [f] every [period], starting one
    period from now. [jitter], if nonzero, uniformly perturbs each firing
    by [±jitter*period] (default 0). [label] attributes every firing, as
    in {!schedule_after}.

    A timer owns one event record and re-queues it from each firing,
    after [f] returns, so a firing allocates nothing. Each firing is
    still a fresh event: it takes its id when the previous firing
    re-queues it, with that firing as its parent and its instant as the
    enqueue instant, exactly as if the firing had called
    {!schedule_after}. *)

val stop_timer : timer -> unit
(** Stops the periodic timer; the pending firing is cancelled. *)

(** {2 Re-armable deadlines}

    A one-shot timer for a liveness check that is pushed later on every
    packet it watches (BFD detection, the BGP hold timer). Setting a
    deadline behaves exactly like cancelling the previous event and
    scheduling a fresh one — same dispatch order among same-instant
    events, same event id, label, dwell and causal parent — but keeps at
    most one wake-up in the heap. Pushing the deadline later only
    updates a field; the queued wake-up follows the new instant when it
    pops, without a dispatch. Moving it earlier replaces the wake-up.
    Clearing is lazy. A deadline owns one wake-up record and re-queues
    it whenever it is out of the heap; only moving the deadline earlier
    while its wake-up is queued allocates a fresh one. *)

type deadline

val deadline : t -> label:string -> (unit -> unit) -> deadline
(** [deadline t ~label f] is an unarmed deadline that runs [f] when it
    expires, attributed to [label] as in {!schedule_after}. *)

val set_deadline : deadline -> Time.t -> unit
(** [set_deadline d instant] (re-)arms [d] to expire at [instant],
    replacing any earlier setting. An instant in the past is an
    [Invalid_argument]. *)

val clear_deadline : deadline -> unit
(** Disarms the deadline; a no-op when it is not armed. *)

(** {2 Fifos}

    An event source for a stream of items that are each handled at
    their own instant, such as a link direction's packets in flight.
    [enqueue q instant x] behaves exactly like scheduling a fresh event
    at [instant] that hands [x] to [q]'s handler: the same id, label,
    parent, enqueue instant and dispatch order among all events, and it
    counts in {!pending_events} until it is dispatched. But only the
    earliest item sits in the event queue, in one record the fifo
    re-queues under the next item's key when it dispatches, so an item
    allocates nothing once the fifo's ring has grown to its peak
    length.

    Items are dispatched in (instant, enqueue order). An item due
    earlier than the last one is inserted in order; when it becomes the
    earliest, the queued record is replaced, the one case that
    allocates. Items cannot be cancelled. *)

type 'a fifo

val fifo : t -> label:string -> dummy:'a -> 'a fifo
(** [fifo t ~label ~dummy] is an empty fifo whose items are dispatched
    as [label] events. [dummy] fills the ring's free slots, so a
    dispatched item is not kept alive by the fifo; it is never handed
    to the handler. The handler is {!set_handler}'s, [ignore] until
    then. *)

val set_handler : 'a fifo -> ('a -> unit) -> unit
(** [set_handler q f] makes [f] the handler of [q]'s items. *)

val enqueue : 'a fifo -> Time.t -> 'a -> unit
(** [enqueue q instant x] hands [x] to [q]'s handler at [instant], as
    an event of its own. An instant in the past is an
    [Invalid_argument]. *)

(** {1 Test-only} *)

val current_label : t -> string
(** Inspection: the attribution label of the event currently (or most
    recently) executed by this engine; ["main"] before any labelled
    event ran. Tests check label inheritance against a model. *)

val queued_events : t -> int
(** Inspection: number of entries in the event queue — both tiers, the near one
    for events due under 1 ms after the clock when queued and the far
    one for the rest — including cancelled events and stale deadline
    wake-ups not yet popped. A {!fifo} is one entry however many items
    it holds, so without fifos [queued_events t - pending_events t] is
    what lazy cancellation costs in queue size. *)
