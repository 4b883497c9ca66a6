(* The key fields are mutable so that a recurring source (a timer, a
   deadline, a fifo) can re-queue one record under a fresh key instead
   of allocating one per event. A record is re-keyed only while it is
   out of the heap: after its own dispatch, or when it was never queued.
   Such records never escape the engine as handles. *)
type event = {
  mutable time : Time.t;
  mutable seq : int; (* tie-breaker: FIFO among same-instant events;
                        doubles as the event's unique id within its engine *)
  action : unit -> unit;
  mutable state : int; (* [queued], [dead] or [wake], below *)
  owner : t;
  label : string; (* cost-attribution label, see [schedule_at] *)
  mutable sched_at : Time.t; (* enqueue instant: dwell = time - sched_at *)
  mutable caused_by : int; (* seq of the event executing when this one
                              was scheduled; -1 from outside dispatch *)
}

(* One tier of the event queue: a 4-ary min-heap ordered by (time,
   seq), a strict total order since seqs are unique. Each entry's key
   lives in two int arrays beside the event array, so sifting compares
   plain ints and never dereferences an event record. Slots at and
   beyond [size] hold [sentinel], so a dispatched event is unreachable
   from the heap. *)
and heap = {
  mutable times : int array;
  mutable seqs : int array;
  mutable evs : event array;
  mutable size : int;
  sentinel : event;
}

(* The queue has two tiers: [near] holds the entries due less than
   [near_window] after the clock when they were pushed (packet hops,
   loopbacks, zero-delay hand-offs), [far] holds everything else
   (timers, leases, deadlines). The next event is the smaller of the
   two roots by (time, seq), so dispatch order is that of one heap; the
   split only keeps the small, fast-churning near heap shallow. *)
and t = {
  mutable clock : Time.t;
  near : heap;
  far : heap;
  mutable next_seq : int;
  mutable live : int; (* queued and not cancelled *)
  mutable processed : int;
  mutable current_label : string; (* label of the executing event *)
  mutable current_id : int; (* seq of the executing event; -1 outside *)
  root_rng : Rng.t;
  dls : dls_state; (* the creating domain's meter and observer slot *)
}

and trace_hook =
  eng:t ->
  id:int ->
  parent:int ->
  label:string ->
  sched_at:Time.t ->
  exec_at:Time.t ->
  unit

and observer = { before : trace_hook; after : unit -> unit }

(* Domain-local engine state: the cross-engine throughput meter and the
   observer slot. One record per domain, captured into [t] at [create]
   so the per-event hot path pays a field read, not a DLS lookup.
   Observers and meter cover every engine *this domain* creates —
   exactly the old process-global behaviour when single-domain, and
   per-campaign-worker isolation under [--jobs N] (a profiler attached
   on one domain never observes, or races with, another domain's
   runs). *)
and dls_state = {
  mutable dls_processed : int;
  mutable dls_observers : observer array; (* attach order, oldest first *)
  mutable dls_hook : observer option; (* what [set_trace_hook] attached *)
}

type handle = event

(* Event states. A [wake] entry is a deadline's wake-up: [step] hands it
   back to its deadline, which either re-queues it silently (the
   deadline moved later) or dispatches the deadline's action. *)
let queued = 0
let dead = 1
let wake = 2

let dls_key =
  Domain.DLS.new_key (fun () ->
      { dls_processed = 0; dls_observers = [||]; dls_hook = None })

let dls () = Domain.DLS.get dls_key

module Heap = struct
  (* The arrays start empty and take 256 slots on the first push. *)
  let grow h =
    let n = Int.max 256 (2 * Array.length h.evs) in
    let extend a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.times <- extend h.times 0;
    h.seqs <- extend h.seqs 0;
    h.evs <- extend h.evs h.sentinel

  (* Sift by moving a hole: parents slide down into it until the new
     key's slot is found, then the entry is written once. *)
  let push h e =
    if h.size = Array.length h.evs then grow h;
    let times = h.times and seqs = h.seqs and evs = h.evs in
    let time = e.time and seq = e.seq in
    let i = ref h.size in
    h.size <- h.size + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) lsr 2 in
      let pt = times.(p) in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        evs.(!i) <- evs.(p);
        i := p
      end
      else continue := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    evs.(!i) <- e

  (* Precondition: [h.size > 0] — callers branch on [size] themselves
     so the dispatch loop never allocates a [Some] per event. The last
     entry fills the hole left at the root: the smallest of the hole's
     up to four children moves up until the last entry fits. *)
  let pop h =
    let times = h.times and seqs = h.seqs and evs = h.evs in
    let top = evs.(0) in
    let n = h.size - 1 in
    h.size <- n;
    let time = times.(n) and seq = seqs.(n) and e = evs.(n) in
    evs.(n) <- h.sentinel;
    if n > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let c = (4 * !i) + 1 in
        if c >= n then continue := false
        else begin
          let m = ref c and mt = ref times.(c) and ms = ref seqs.(c) in
          for k = c + 1 to Int.min (c + 3) (n - 1) do
            let kt = times.(k) in
            if kt < !mt || (kt = !mt && seqs.(k) < !ms) then begin
              m := k;
              mt := kt;
              ms := seqs.(k)
            end
          done;
          if !mt < time || (!mt = time && !ms < seq) then begin
            times.(!i) <- !mt;
            seqs.(!i) <- !ms;
            evs.(!i) <- evs.(!m);
            i := !m
          end
          else continue := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      evs.(!i) <- e
    end;
    top
end

let create ?(seed = 42) () =
  let root_rng = Rng.create seed and dls = dls () in
  let rec t =
    {
      clock = Time.zero;
      near;
      far;
      next_seq = 0;
      live = 0;
      processed = 0;
      current_label = "main";
      current_id = -1;
      root_rng;
      dls;
    }
  and near = { times = [||]; seqs = [||]; evs = [||]; size = 0; sentinel }
  and far = { times = [||]; seqs = [||]; evs = [||]; size = 0; sentinel }
  (* The heap's slot filler: a dead event that is never dispatched. *)
  and sentinel =
    {
      time = Time.zero;
      seq = -1;
      action = ignore;
      state = dead;
      owner = t;
      label = "";
      sched_at = Time.zero;
      caused_by = -1;
    }
  in
  t

let now t = t.clock
let rng t = t.root_rng
let current_label t = t.current_label
let current_event_id t = t.current_id
let next_id t = t.next_seq

(* Fleet packet hops are due 5-50 us ahead and its timers 25 ms-1 s. An
   entry stays in the tier it was pushed to; the clock only moves
   forward, so a near entry never becomes far. *)
let near_window = Time.ms 1

let push t e =
  if e.time - t.clock < near_window then Heap.push t.near e
  else Heap.push t.far e

(* The tier whose root dispatches next; an empty tier when both are.
   Returning the heap rather than its root keeps the dispatch loop free
   of a [Some] per event. *)
let next_tier t =
  let n = t.near and f = t.far in
  if f.size = 0 then n
  else if n.size = 0 then f
  else
    let nt = n.times.(0) and ft = f.times.(0) in
    if nt < ft || (nt = ft && n.seqs.(0) < f.seqs.(0)) then n else f

let schedule_at t ?label instant action =
  if instant < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %s is in the past (now %s)"
         (Time.to_string instant) (Time.to_string t.clock));
  let label = match label with Some l -> l | None -> t.current_label in
  let e =
    {
      time = instant;
      seq = t.next_seq;
      action;
      state = queued;
      owner = t;
      label;
      sched_at = t.clock;
      caused_by = t.current_id;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  push t e;
  e

let schedule_after t ?label span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t ?label (Time.add t.clock span) action

let cancel (e : handle) =
  if e.state = queued then begin
    e.state <- dead;
    e.owner.live <- e.owner.live - 1
  end

(* The observer slot. Observers must be transparent: no simulation
   state, telemetry, or RNG access — replay digests are byte-identical
   with any set attached. Attaching copies the array, so [exec] reads
   one array per dispatch and allocates nothing. *)
let attach o =
  let d = dls () in
  d.dls_observers <- Array.append d.dls_observers [| o |]

let detach o =
  let d = dls () in
  d.dls_observers <-
    Array.of_list (List.filter (fun x -> x != o) (Array.to_list d.dls_observers))

let set_trace_hook h =
  let d = dls () in
  Option.iter detach d.dls_hook;
  d.dls_hook <- Option.map (fun before -> { before; after = ignore }) h;
  Option.iter attach d.dls_hook

(* [action] is [e.action], except for a due deadline, whose queued entry
   carries the deadline's wake-up instead. *)
let exec t e action =
  e.state <- dead;
  t.live <- t.live - 1;
  t.clock <- e.time;
  t.processed <- t.processed + 1;
  t.dls.dls_processed <- t.dls.dls_processed + 1;
  t.current_label <- e.label;
  t.current_id <- e.seq;
  let obs = t.dls.dls_observers in
  if Array.length obs = 0 then action ()
  else begin
    (* The newest observer is outermost: its [before] runs first and its
       [after] last, so an observer attached earlier (the profiler)
       measures the action without a later one's cost. *)
    for i = Array.length obs - 1 downto 0 do
      obs.(i).before ~eng:t ~id:e.seq ~parent:e.caused_by ~label:e.label
        ~sched_at:e.sched_at ~exec_at:e.time
    done;
    action ();
    for i = 0 to Array.length obs - 1 do
      obs.(i).after ()
    done
  end;
  t.current_id <- -1

(* Pops and dispatches the root of the non-empty tier [h]. *)
let dispatch t h =
  let e = Heap.pop h in
  if e.state = queued then exec t e e.action
  else if e.state = wake then e.action ()

let step t =
  let h = next_tier t in
  if h.size = 0 then false
  else begin
    dispatch t h;
    true
  end

let run t = while step t do () done

let rec run_until t limit =
  let h = next_tier t in
  if h.size > 0 && h.times.(0) <= limit then begin
    dispatch t h;
    run_until t limit
  end
  else if limit > t.clock then t.clock <- limit

let run_for t span = run_until t (Time.add t.clock span)

let run_until_cond t ~slice ~deadline cond =
  let rec loop () =
    if cond () then true
    else if t.clock >= deadline then false
    else begin
      run_until t (Int.min deadline (Time.add t.clock slice));
      loop ()
    end
  in
  loop ()

let pending_events t = t.live
let queued_events t = t.near.size + t.far.size
let processed_events t = t.processed
let global_processed_events () = (dls ()).dls_processed

(* A record no heap holds yet, for a recurring source to re-queue. *)
let make_record t ~label action =
  {
    time = Time.zero;
    seq = -1;
    action;
    state = dead;
    owner = t;
    label;
    sched_at = Time.zero;
    caused_by = -1;
  }

(* Queues [e], which is out of the heap, under a new key. *)
let queue_record e state ~time ~seq ~sched_at ~caused_by =
  e.time <- time;
  e.seq <- seq;
  e.sched_at <- sched_at;
  e.caused_by <- caused_by;
  e.state <- state;
  push e.owner e

(* [e] is queued under a key that is now too late: it stays in the heap,
   dead, and the copy returned takes its place. *)
let replace e =
  e.state <- dead;
  { e with state = dead }

(* A timer keeps one record and re-queues it from its own firing, after
   [f], where the closure-per-firing timer scheduled its next firing:
   ids, parents and enqueue instants are those of a fresh schedule. *)
type timer = {
  tm_eng : t;
  period : Time.span;
  jitter : float;
  (* Jitter draws come from a private stream split off at creation, not
     from the shared root generator: a timer's firing pattern must not
     shift when an unrelated subsystem (created mid-run, e.g. by a fault
     injector) starts drawing from the engine RNG. *)
  jitter_rng : Rng.t option;
  width : float; (* [2 * jitter], stored so a draw boxes no argument *)
  f : unit -> unit;
  mutable stopped : bool;
  mutable tm_ev : event; (* the sentinel until [every] builds it *)
}

let next_delay tm =
  match tm.jitter_rng with
  | None -> tm.period
  | Some rng ->
      let j = Rng.float rng tm.width -. tm.jitter in
      let d = float_of_int tm.period *. (1.0 +. j) in
      max 1 (int_of_float d)

(* Queues the next firing under the key [schedule_after] would give it. *)
let arm tm =
  let t = tm.tm_eng in
  let time = Time.add t.clock (next_delay tm) in
  queue_record tm.tm_ev queued ~time ~seq:t.next_seq ~sched_at:t.clock
    ~caused_by:t.current_id;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1

(* The action of a timer's record. A stopped timer's record is
   cancelled, so only [f] itself can stop it here. *)
let fire tm () =
  tm.f ();
  if not tm.stopped then arm tm

let every t ?label ?(jitter = 0.0) period f =
  if period <= 0 then invalid_arg "Engine.every: period must be positive";
  let label = match label with Some l -> l | None -> t.current_label in
  let jitter_rng = if jitter <= 0.0 then None else Some (Rng.split t.root_rng) in
  let tm =
    {
      tm_eng = t;
      period;
      jitter;
      jitter_rng;
      width = 2.0 *. jitter;
      f;
      stopped = false;
      tm_ev = t.near.sentinel;
    }
  in
  tm.tm_ev <- make_record t ~label (fire tm);
  arm tm;
  tm

let stop_timer tm =
  tm.stopped <- true;
  cancel tm.tm_ev

(* A liveness timer (BFD detect, BGP hold) moves later on every packet
   it watches. Cancel-and-reschedule would leave one dead heap entry
   per packet; a deadline keeps one wake-up queued instead and lets it
   follow the deadline when it fires. Each [set_deadline] still takes
   the sequence number a fresh schedule would have taken, and the entry
   that finally dispatches carries it, with the enqueue instant and
   causal parent of that last set: dispatch order, event ids and what
   the observers see are those of cancel-and-reschedule. *)
type deadline = {
  d_eng : t;
  d_action : unit -> unit;
  mutable d_armed : bool;
  mutable d_at : Time.t;
  mutable d_seq : int;
  mutable d_sched_at : Time.t;
  mutable d_caused_by : int;
  (* The wake-up record, in the heap while in state [wake]. It is
     re-queued when it pops, and replaced only when the deadline moves
     earlier while it is queued. *)
  mutable d_entry : event;
}

let queue_wake d =
  queue_record d.d_entry wake ~time:d.d_at ~seq:d.d_seq ~sched_at:d.d_sched_at
    ~caused_by:d.d_caused_by

(* The action of the wake-up record, run when [step] pops it (only a
   record in state [wake], so the current one). A lazily cleared
   deadline drops it; one moved later re-queues it at its current
   instant without a dispatch; a due one dispatches its action. *)
let on_wake d () =
  let e = d.d_entry in
  e.state <- dead;
  if d.d_armed then
    if d.d_seq = e.seq then begin
      d.d_armed <- false;
      exec d.d_eng e d.d_action
    end
    else queue_wake d

let deadline t ~label action =
  let d =
    {
      d_eng = t;
      d_action = action;
      d_armed = false;
      d_at = Time.zero;
      d_seq = 0;
      d_sched_at = Time.zero;
      d_caused_by = -1;
      d_entry = t.near.sentinel;
    }
  in
  d.d_entry <- make_record t ~label (on_wake d);
  d

let set_deadline d instant =
  let t = d.d_eng in
  if instant < t.clock then invalid_arg "Engine.set_deadline: instant in the past";
  if not d.d_armed then begin
    d.d_armed <- true;
    t.live <- t.live + 1
  end;
  d.d_at <- instant;
  d.d_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  d.d_sched_at <- t.clock;
  d.d_caused_by <- t.current_id;
  let e = d.d_entry in
  if e.state <> wake then queue_wake d
  else if instant < e.time then begin
    d.d_entry <- replace e;
    queue_wake d
  end
(* else the queued record fires first, then follows *)

let clear_deadline d =
  if d.d_armed then begin
    d.d_armed <- false;
    d.d_eng.live <- d.d_eng.live - 1
  end

(* A fifo keeps its items in a ring, each with the key a fresh
   [schedule_at] would have given it, and only its head in the heap, in
   one record. The record's action takes the head, re-queues the record
   under the next item's key and hands the item to the handler. Items
   due in order (a link's arrivals while its delay holds) append; an
   earlier one is inserted in key order. *)
type 'a fifo = {
  q_eng : t;
  q_dummy : 'a; (* fills free slots: a dispatched item is not kept alive *)
  mutable q_handler : 'a -> unit;
  mutable q_items : 'a array; (* capacity 0, then 1, doubling *)
  mutable q_keys : int array; (* per slot: time, seq, sched_at, caused_by *)
  mutable q_head : int;
  mutable q_len : int;
  mutable q_ev : event; (* in the heap while [q_len > 0] *)
}

let slot q k = (q.q_head + k) land (Array.length q.q_items - 1)

let queue_head q =
  let keys = q.q_keys and i = 4 * q.q_head in
  queue_record q.q_ev queued ~time:keys.(i) ~seq:keys.(i + 1) ~sched_at:keys.(i + 2)
    ~caused_by:keys.(i + 3)

(* The action of the fifo's record. *)
let take_head q () =
  let h = q.q_head in
  let x = q.q_items.(h) in
  q.q_items.(h) <- q.q_dummy;
  q.q_head <- (h + 1) land (Array.length q.q_items - 1);
  q.q_len <- q.q_len - 1;
  if q.q_len > 0 then queue_head q;
  q.q_handler x

let grow q =
  let n = Int.max 1 (2 * Array.length q.q_items) in
  let items = Array.make n q.q_dummy and keys = Array.make (4 * n) 0 in
  for k = 0 to q.q_len - 1 do
    let i = slot q k in
    items.(k) <- q.q_items.(i);
    Array.blit q.q_keys (4 * i) keys (4 * k) 4
  done;
  q.q_items <- items;
  q.q_keys <- keys;
  q.q_head <- 0

let fifo t ~label ~dummy =
  let q =
    {
      q_eng = t;
      q_dummy = dummy;
      q_handler = ignore;
      q_items = [||];
      q_keys = [||];
      q_head = 0;
      q_len = 0;
      q_ev = t.near.sentinel;
    }
  in
  q.q_ev <- make_record t ~label (take_head q);
  q

let set_handler q f = q.q_handler <- f

let enqueue q instant x =
  let t = q.q_eng in
  if instant < t.clock then invalid_arg "Engine.enqueue: instant in the past";
  if q.q_len = Array.length q.q_items then grow q;
  (* The new item sorts after every item due no later, as its id is the
     largest, so only items due after it move back a slot. *)
  let k = ref q.q_len in
  while !k > 0 && q.q_keys.(4 * slot q (!k - 1)) > instant do
    let src = slot q (!k - 1) and dst = slot q !k in
    q.q_items.(dst) <- q.q_items.(src);
    Array.blit q.q_keys (4 * src) q.q_keys (4 * dst) 4;
    decr k
  done;
  let i = slot q !k and keys = q.q_keys in
  q.q_items.(i) <- x;
  keys.(4 * i) <- instant;
  keys.((4 * i) + 1) <- t.next_seq;
  keys.((4 * i) + 2) <- t.clock;
  keys.((4 * i) + 3) <- t.current_id;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  q.q_len <- q.q_len + 1;
  if !k = 0 then begin
    (* A new head: the record is queued under the old head's key, if
       there was one. *)
    if q.q_len > 1 then q.q_ev <- replace q.q_ev;
    queue_head q
  end
