open Sim
open Netsim

let m_rx_repl = Telemetry.Registry.counter "replicator.rx_replicated"
let m_tx_repl = Telemetry.Registry.counter "replicator.tx_replicated"
let m_acks_held = Telemetry.Registry.counter "replicator.acks_held"
let m_acks_released = Telemetry.Registry.counter "replicator.acks_released"
let m_store_retries = Telemetry.Registry.counter "replicator.store_retries"
let m_hold_s = Telemetry.Registry.histogram "replicator.ack_hold_s"
let m_acks_shed = Telemetry.Registry.counter "replicator.acks_shed"
let m_degrades = Telemetry.Registry.counter "replicator.degrades"
let m_degraded_s = Telemetry.Registry.histogram "replicator.degraded_s"

(* A strictly ordered, depth-one-pipelined stream of store operations.
   Consecutive sets (and consecutive deletes) coalesce into batches, which
   is what keeps the per-message replication cost on the cheap side of the
   Figure 5(b) batching curve under update floods. *)
type op =
  | Set of (string * string) list * (unit -> unit) list
  | Del of string list

(* A queued op still open to coalescing. Set pairs and callbacks
   accumulate reversed and are put back in order once, when the pump
   takes the batch, so a batch of n writes costs O(n) to build. *)
type batch =
  | Sets of {
      mutable rev_pairs : (string * string) list;
      mutable n_pairs : int;
      mutable rev_ks : (unit -> unit) list;
    }
  | Dels of { mutable keys : string list; mutable n_keys : int }

type lane = {
  queue : batch Queue.t; (* oldest first *)
  mutable newest : batch option; (* the queue's last batch, the coalescing target *)
  mutable inflight : bool;
  mutable current : op option; (* the op the pump holds, for shedding *)
  mutable blocked_since : Time.t option; (* first unanswered store attempt *)
}

(* An inbound replica may be trimmed only once it is BOTH durable (its
   control-lane write completed) and applied to the routing table. The
   two events race across lanes, so track both. *)
type in_state = { in_key : string; mutable durable : bool; mutable applied : bool }

type t = {
  replicate : bool;
  ack_hold : bool;
  eng : Engine.t;
  client : Store.Client.t;
  cid : Keys.conn_id;
  service : string;
  rib_enc : Keys.rib_encoder; (* checkpoint record heads, per UPDATE *)
  mutable stopped : bool;
  (* Two write pumps, like two pipelined connections to Redis: the
     control lane carries everything the ACK watermark and message
     release wait on; the bulk lane carries routing-table checkpoints and
     trims, which must not delay ACK release. The only cross-record
     ordering the design needs — a received message's replica may be
     deleted only after its checkpoint entries are durable — is within
     the bulk lane, which is FIFO. *)
  ctl : lane;
  bulk : lane;
  (* Receive side. *)
  mutable wm : int option;
  mutable wm_target : int; (* highest durable ack, pending confirmation *)
  mutable confirm_inflight : bool;
  held : (int * Time.t * (Netfilter.verdict -> unit)) Queue.t;
  mutable in_seq : int;
  unapplied : in_state Queue.t; (* in| records awaiting apply + durability *)
  (* Send side. *)
  mutable written : int; (* stream bytes handed to replication *)
  mutable outtrim : int; (* stream offset known acked *)
  out_records : (int * int) Queue.t; (* (offset, len), oldest first *)
  mutable tail_source : (unit -> (int * int * string) option) option;
  (* The stall/degrade watchdog ticks on a 25 ms grid from the first
     [ensure_watchdog], but only while something can age: an ACK held
     or the control lane blocked. See [arm_watchdog]. *)
  mutable wd_started : bool;
  mutable wd_origin : Time.t;
  mutable wd_tick : Engine.handle option; (* pending or running tick *)
  mutable wd_fire : unit -> unit; (* the tick, set by [ensure_watchdog] *)
  mutable part_written : bool;
  (* Connection epoch: rolls forward each time the replicated session's
     transport dies, so every successor connection writes its
     stream-scoped records (ack/in/out/outtrim/part) under a fresh key
     space. Recovery follows the epoch recorded in the meta record. *)
  mutable epoch : int;
  (* Degraded pass-through (store-outage survival). When durability
     cannot be achieved within [degrade_after] of the oldest obligation
     — a held ACK aging past the deadline, or the control lane unable to
     land a write for that long — NSR protection is suspended rather
     than letting the peer's hold timer fire: held ACKs are shed,
     pending message releases fire without durability cover, and
     everything passes through until the store answers again. [gen]
     fences the stale store callbacks each transition orphans. *)
  mutable degrade_after : Time.span option;
  mutable degraded : bool;
  mutable degraded_since : Time.t option;
  mutable gen : int;
  mutable heal_probe : Engine.timer option;
  mutable heal_inflight : bool;
  mutable on_store_healed : unit -> unit;
}

let new_lane () =
  {
    queue = Queue.create ();
    newest = None;
    inflight = false;
    current = None;
    blocked_since = None;
  }

let create ?(replicate = true) ?(ack_hold = true) ~engine ~client ~conn_id
    ~service () =
  {
    replicate;
    ack_hold = replicate && ack_hold;
    eng = engine;
    client;
    cid = conn_id;
    service;
    stopped = false;
    rib_enc = Keys.rib_encoder ();
    ctl = new_lane ();
    bulk = new_lane ();
    wm = None;
    wm_target = 0;
    confirm_inflight = false;
    held = Queue.create ();
    in_seq = 0;
    unapplied = Queue.create ();
    written = 0;
    outtrim = 0;
    out_records = Queue.create ();
    tail_source = None;
    wd_started = false;
    wd_origin = Time.zero;
    wd_tick = None;
    wd_fire = ignore;
    part_written = false;
    epoch = 0;
    degrade_after = None;
    degraded = false;
    degraded_since = None;
    gen = 0;
    heal_probe = None;
    heal_inflight = false;
    on_store_healed = (fun () -> ());
  }

let ecid t = Keys.epoch_cid t.cid t.epoch
let epoch t = t.epoch
let watermark t = t.wm
let held_segments t = Queue.length t.held
let bytes_written t = t.written
let pending_unapplied t = Queue.length t.unapplied
let degraded t = t.degraded
let set_on_store_healed t f = t.on_store_healed <- f

(* --- Write pump ------------------------------------------------------------ *)

(* Pairs per coalesced set batch; deletion batches take 8x as many keys. *)
let max_batch = 128

let enqueue_op lane op =
  (* Coalesce with the newest queued op of the same kind: sets while the
     batch holds fewer than [max_batch] pairs, short deletions while it
     holds fewer than [8 * max_batch] keys (a mass withdrawal can queue
     100K+ checkpoint deletions at once). The bounds fix the batch
     boundaries, and with them the store's per-request cost; merging
     costs the same at any batch size. Deletions are unordered within a
     batch, so new keys go in front. *)
  let push b =
    Queue.push b lane.queue;
    lane.newest <- Some b
  in
  match (op, lane.newest) with
  | Set (pairs, ks), Some (Sets s) when s.n_pairs < max_batch ->
      s.rev_pairs <- List.rev_append pairs s.rev_pairs;
      s.n_pairs <- s.n_pairs + List.length pairs;
      s.rev_ks <- List.rev_append ks s.rev_ks
  | Del keys, Some (Dels d)
    when List.compare_length_with keys 64 < 0 && d.n_keys < 8 * max_batch ->
      d.keys <- List.rev_append keys d.keys;
      d.n_keys <- d.n_keys + List.length keys
  | Set (pairs, ks), _ ->
      push
        (Sets
           {
             rev_pairs = List.rev pairs;
             n_pairs = List.length pairs;
             rev_ks = List.rev ks;
           })
  | Del keys, _ -> push (Dels { keys; n_keys = List.length keys })

let op_of_batch = function
  | Sets s -> Set (List.rev s.rev_pairs, List.rev s.rev_ks)
  | Dels d -> Del d.keys

(* --- The watchdog's grid ------------------------------------------------------

   The watchdog ticks on a 25 ms grid, as a poll from its first arming
   would, but a tick acts only on an ACK held or a control-lane write
   blocked, so it runs only while one of them exists. From idle, the
   first tick goes to the next grid instant (the current one included).
   That tick finds everything younger than 25 ms — below the 30 ms
   stall threshold and below a degrade deadline of at least one tick —
   so it acts as the poll's tick would, and it re-arms where the poll
   did, keeping later ticks' queue order. A shorter degrade deadline
   would let that first tick act, so the watchdog then polls without
   pause ([must_poll]). *)

let watchdog_period = Time.ms 25

let busy t = (not (Queue.is_empty t.held)) || t.ctl.blocked_since <> None

let must_poll t =
  match t.degrade_after with Some d -> d < watchdog_period | None -> false

let arm_watchdog t =
  if t.wd_started && t.wd_tick = None && not t.stopped then begin
    let since = Time.diff (Engine.now t.eng) t.wd_origin in
    let k = max 1 ((since + watchdog_period - 1) / watchdog_period) in
    t.wd_tick <-
      Some
        (Engine.schedule_at t.eng ~label:"repl.watchdog"
           (Time.add t.wd_origin (k * watchdog_period))
           t.wd_fire)
  end

(* Each operation is retried until the store acknowledges it: a request
   lost to transient network trouble must neither block the lane for a
   long client timeout (stalled keepalive releases would let the peer's
   hold timer fire) nor — worse — release messages whose replication
   never actually happened. *)
let rec pump t lane =
  if (not lane.inflight) && (not t.stopped) && not t.degraded then
    match Queue.take_opt lane.queue with
    | None -> ()
    | Some batch ->
        if Queue.is_empty lane.queue then lane.newest <- None;
        let op = op_of_batch batch in
        lane.inflight <- true;
        lane.current <- Some op;
        (* A degrade entry (or re-arm) orphans this op: its store
           callbacks must then do nothing — the shed already fired the
           release callbacks, and touching lane state would corrupt the
           fresh generation's pipeline. *)
        let gen0 = t.gen in
        let live () = t.gen = gen0 in
        let finish () =
          lane.current <- None;
          lane.inflight <- false;
          lane.blocked_since <- None;
          pump t lane
        in
        let miss attempt =
          if live () then begin
            if lane.blocked_since = None then begin
              lane.blocked_since <- Some (Engine.now t.eng);
              if lane == t.ctl then arm_watchdog t
            end;
            Telemetry.Registry.incr m_store_retries;
            ignore
              (Engine.schedule_after t.eng ~label:"repl.retry" (Time.ms 100)
                 attempt)
          end
        in
        let rec attempt () =
          if t.stopped || not (live ()) then ()
          else
            match op with
            | Set (pairs, ks) ->
                Store.Client.set t.client ~timeout:(Time.sec 1) pairs
                  (function
                  | Ok () ->
                      if live () then begin
                        List.iter (fun k -> k ()) ks;
                        finish ()
                      end
                  | Error `Timeout -> miss attempt)
            | Del keys ->
                Store.Client.del t.client ~timeout:(Time.sec 1) keys
                  (function
                  | Ok _ -> if live () then finish ()
                  | Error `Timeout -> miss attempt)
        in
        attempt ()

(* While degraded the lanes are gone: a Set's callbacks (message
   releases, durability notifications — the latter inert against the
   cleared watermark) fire immediately, deletes are dropped; the re-arm
   rewrites every cursor the skipped writes would have maintained. *)
let submit_ctl t op =
  if t.degraded then
    match op with
    | Set (_, ks) -> List.iter (fun k -> k ()) ks
    | Del _ -> ()
  else begin
    enqueue_op t.ctl op;
    pump t t.ctl
  end

let submit_bulk t op =
  if t.degraded then
    match op with
    | Set (_, ks) -> List.iter (fun k -> k ()) ks
    | Del _ -> ()
  else begin
    enqueue_op t.bulk op;
    pump t t.bulk
  end

(* --- tcp_queue: the held-ACK discipline ------------------------------------ *)

let release_one t =
  let ack, since, reinject = Queue.pop t.held in
  let held_s = Time.to_sec_f (Time.diff (Engine.now t.eng) since) in
  Telemetry.Registry.incr m_acks_released;
  Telemetry.Registry.observe m_hold_s held_s;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Ack_released { conn = t.cid; ack; held_s });
  reinject Netfilter.Accept

let release_ready t =
  match t.wm with
  | None -> ()
  | Some wm ->
      (* Seeded fault: silently swallow one ready-to-release ACK — the
         peer's cumulative ACKs make this behaviorally invisible, but
         the end-of-run held/released balance no longer closes. *)
      if
        !Monitor.Faults.leak_held_acks
        && (not (Queue.is_empty t.held))
        && (let ack, _, _ = Queue.peek t.held in
            ack <= wm)
      then begin
        Monitor.Faults.leak_held_acks := false;
        ignore (Queue.pop t.held)
      end;
      let continue = ref true in
      while !continue && not (Queue.is_empty t.held) do
        let ack, _, _ = Queue.peek t.held in
        if ack <= wm then release_one t else continue := false
      done;
      (* Seeded fault: release one held ACK beyond the durable
         watermark — exactly one message early. The in-flight store
         write completes moments later, so in a quiescent scenario only
         the safety invariant observes the early release. *)
      if !Monitor.Faults.early_ack_release && not (Queue.is_empty t.held)
      then begin
        Monitor.Faults.early_ack_release := false;
        release_one t
      end

(* The confirmation read of §3.1.2: tcp_queue trusts the watermark only
   after reading it back from the database. *)
let rec confirm_watermark t =
  if (not t.confirm_inflight) && not t.stopped then begin
    match t.wm with
    | Some wm when t.wm_target > wm ->
        t.confirm_inflight <- true;
        Store.Client.get t.client ~timeout:(Time.sec 1)
          [ Keys.ack_key (ecid t) ] (fun result ->
            t.confirm_inflight <- false;
            (match result with
            | Ok [ (_, Some v) ] -> (
                match int_of_string_opt v with
                | Some confirmed ->
                    (match t.wm with
                    | Some old when confirmed > old ->
                        t.wm <- Some confirmed;
                        if Telemetry.Gate.on () then
                          Telemetry.Bus.emit t.eng
                            (Telemetry.Event.Wm_durable
                               { conn = t.cid; ack = confirmed })
                    | _ -> ());
                    release_ready t
                | None -> ())
            | Ok _ | Error `Timeout -> ());
            (* The target may have advanced again meanwhile. *)
            confirm_watermark t)
    | _ -> ()
  end

(* --- Degraded pass-through (store-outage survival) ----------------------------

   Holding ACKs (and messages) against a store that stays unreachable
   eventually trades an invisible recovery property for a very visible
   failure: the peer's hold timer. Past the configured deadline the
   replicator sheds its obligations, suspends NSR, and keeps the session
   alive; once the store answers again the app re-arms it under a fresh
   epoch and re-audits Adj-RIB-Out. *)

let stop_heal_probe t =
  match t.heal_probe with
  | Some p ->
      Engine.stop_timer p;
      t.heal_probe <- None
  | None -> ()

let degraded_seconds t =
  match t.degraded_since with
  | Some since -> Time.to_sec_f (Time.diff (Engine.now t.eng) since)
  | None -> 0.

(* Leaving degraded mode without a re-arm (the transport died instead):
   successor-session bookkeeping starts from whatever path runs next. *)
let clear_degraded t =
  if t.degraded then begin
    let degraded_s = degraded_seconds t in
    t.degraded <- false;
    t.degraded_since <- None;
    t.gen <- t.gen + 1;
    t.heal_inflight <- false;
    stop_heal_probe t;
    Telemetry.Registry.observe m_degraded_s degraded_s;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Degraded_exit
           { conn = t.cid; degraded_s; epoch = t.epoch })
  end

let shed_lane lane =
  let fire = function
    | Set (_, ks) -> List.iter (fun k -> k ()) ks
    | Del _ -> ()
  in
  (match lane.current with Some op -> fire op | None -> ());
  Queue.iter (fun b -> fire (op_of_batch b)) lane.queue;
  lane.current <- None;
  Queue.clear lane.queue;
  lane.newest <- None;
  lane.inflight <- false;
  lane.blocked_since <- None

let heal_probe_tick t =
  if t.degraded && (not t.stopped) && not t.heal_inflight then begin
    t.heal_inflight <- true;
    let gen0 = t.gen in
    (* Any answered read proves reachability; the meta key exists for
       every established session. *)
    Store.Client.get t.client ~timeout:(Time.sec 1) [ Keys.meta_key t.cid ]
      (fun result ->
        if t.gen = gen0 then begin
          t.heal_inflight <- false;
          if t.degraded && not t.stopped then
            match result with
            | Ok _ ->
                stop_heal_probe t;
                t.on_store_healed ()
            | Error `Timeout -> ()
        end)
  end

let enter_degraded t =
  if (not t.degraded) && not t.stopped then begin
    let now = Engine.now t.eng in
    let oldest_held_s =
      if Queue.is_empty t.held then 0.
      else
        let _, since, _ = Queue.peek t.held in
        Time.to_sec_f (Time.diff now since)
    in
    t.degraded <- true;
    t.degraded_since <- Some now;
    t.gen <- t.gen + 1;
    Telemetry.Registry.incr m_degrades;
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Degraded_enter
           { conn = t.cid; held = Queue.length t.held; oldest_held_s });
    (* Shed every held ACK — released to the peer without durability
       cover, which is exactly the suspension being declared. *)
    while not (Queue.is_empty t.held) do
      let ack, since, reinject = Queue.pop t.held in
      let held_s = Time.to_sec_f (Time.diff now since) in
      Telemetry.Registry.incr m_acks_shed;
      if Telemetry.Gate.on () then
        Telemetry.Bus.emit t.eng
          (Telemetry.Event.Ack_shed { conn = t.cid; ack; held_s });
      reinject Netfilter.Accept
    done;
    t.wm <- None; (* pass-through: nothing is held while degraded *)
    t.wm_target <- 0;
    shed_lane t.ctl;
    shed_lane t.bulk;
    Queue.clear t.unapplied;
    if t.heal_probe = None then
      t.heal_probe <-
        Some
          (Engine.every t.eng ~label:"repl.heal_probe" (Time.sec 1) (fun () ->
               heal_probe_tick t))
  end

let prepare_rearm t =
  if not t.degraded then invalid_arg "Replicator.prepare_rearm: not degraded";
  t.epoch <- t.epoch + 1;
  t.epoch

let complete_rearm t ~watermark ~stream_offset ~part_written =
  if t.degraded then begin
    let degraded_s = degraded_seconds t in
    t.degraded <- false;
    t.degraded_since <- None;
    t.gen <- t.gen + 1;
    t.heal_inflight <- false;
    stop_heal_probe t;
    t.ctl.blocked_since <- None;
    t.bulk.blocked_since <- None;
    t.wm <- Some watermark;
    t.wm_target <- watermark;
    t.in_seq <- 0;
    t.written <- stream_offset;
    t.outtrim <- stream_offset;
    Queue.clear t.out_records;
    t.part_written <- part_written;
    Queue.clear t.unapplied;
    Telemetry.Registry.observe m_degraded_s degraded_s;
    if Telemetry.Gate.on () then begin
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Degraded_exit
           { conn = t.cid; degraded_s; epoch = t.epoch });
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Wm_durable { conn = t.cid; ack = watermark })
    end;
    release_ready t
  end

let session_established t ~irs =
  t.wm <- Some (irs + 1);
  t.wm_target <- irs + 1;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Wm_durable { conn = t.cid; ack = irs + 1 });
  release_ready t

let session_down t =
  (* A transport death ends any degraded window: the successor session
     starts with NSR armed (and will re-degrade if the store is still
     out). *)
  clear_degraded t;
  (* The connection is gone; its sequence space dies with it. Drop back
     to pass-through so the successor's handshake is not judged against
     a stale watermark, and flush anything still held (the dead
     connection cannot ACK it out). *)
  t.wm <- None;
  while not (Queue.is_empty t.held) do
    let ack, _, reinject = Queue.pop t.held in
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Ack_dropped { conn = t.cid; ack });
    reinject Netfilter.Accept
  done;
  (* Retire the dead stream's send-side accounting and roll the epoch
     BEFORE a successor connection sends its first byte. Without this, a
     re-established session's tx offsets would continue where the dead
     stream stopped, and the next takeover would graft old-stream
     offsets onto the new connection's initial sequence number — a
     resumed sender permanently ahead of (or behind) the peer, whose
     ACKs then never advance snd_una (found by chaos fuzzing:
     kill.hostnet + cease during the partition + a second kill moments
     after the reconnect). The old epoch's records are deleted as
     hygiene only; recovery never reads them once the meta record names
     the new epoch. *)
  let old = ecid t in
  let stale =
    List.rev
      (Queue.fold (fun acc (off, _) -> Keys.out_key old off :: acc) [] t.out_records)
  in
  let stale = if t.part_written then Keys.part_key old :: stale else stale in
  let stale =
    Queue.fold (fun acc st -> st.in_key :: acc) stale t.unapplied
  in
  let stale = Keys.ack_key old :: Keys.outtrim_key old :: stale in
  Queue.clear t.unapplied;
  t.in_seq <- 0;
  t.written <- 0;
  t.outtrim <- 0;
  Queue.clear t.out_records;
  t.part_written <- false;
  t.epoch <- t.epoch + 1;
  if t.replicate && not t.stopped then submit_bulk t (Del stale)

let resume_at t ~epoch ~watermark ~bytes_written ~in_seq ~outtrim ~out_records =
  t.epoch <- epoch;
  t.wm <- Some watermark;
  t.wm_target <- watermark;
  if Telemetry.Gate.on () then
    Telemetry.Bus.emit t.eng
      (Telemetry.Event.Wm_durable { conn = t.cid; ack = watermark });
  t.written <- bytes_written;
  t.in_seq <- in_seq;
  t.outtrim <- outtrim;
  Queue.clear t.out_records;
  List.iter (fun r -> Queue.push r t.out_records) out_records

let attach_output_chain t chain ~local ~remote =
  if t.ack_hold then begin
    let qnum = Netfilter.fresh_queue_num chain in
    ignore
      (Netfilter.add_rule chain (fun pkt ->
           match pkt.Packet.payload with
           | Tcp.Segment.Tcp _
             when Addr.equal pkt.Packet.src local
                  && Addr.equal pkt.Packet.dst remote ->
               Netfilter.Queue qnum
           | _ -> Netfilter.Accept));
    let q = Netfilter.queue chain qnum in
    Netfilter.set_consumer q (fun pkt ~reinject ->
        match pkt.Packet.payload with
        | Tcp.Segment.Tcp seg -> (
            if t.stopped then reinject Netfilter.Accept
            else
              match t.wm with
              | None -> reinject Netfilter.Accept (* handshake *)
              | Some wm ->
                  if seg.Tcp.Segment.flags.Tcp.Segment.ack
                     && seg.Tcp.Segment.ack > wm
                  then begin
                    Queue.push
                      (seg.Tcp.Segment.ack, Engine.now t.eng, reinject)
                      t.held;
                    arm_watchdog t;
                    Telemetry.Registry.incr m_acks_held;
                    if Telemetry.Gate.on () then
                      Telemetry.Bus.emit t.eng
                        (Telemetry.Event.Ack_held
                           {
                             conn = t.cid;
                             ack = seg.Tcp.Segment.ack;
                             depth = Queue.length t.held;
                           })
                  end
                  else reinject Netfilter.Accept)
        | _ -> reinject Netfilter.Accept)
  end

(* --- Partial-frame tail replication --------------------------------------------

   A sender stalled in RTO backoff can deliver a message fragment whose
   ACK would otherwise wait forever (the rest of the message cannot
   arrive until the ACK opens the window). When a held segment ages past
   the stall threshold, replicate the fragment itself and release. *)

let stall_threshold = Time.ms 30

let check_stall t =
  if (not t.stopped) && not (Queue.is_empty t.held) then begin
    let _, since, _ = Queue.peek t.held in
    if Time.diff (Engine.now t.eng) since > stall_threshold then
      match t.tail_source with
      | Some source -> (
          match source () with
          | Some (offset, inferred_ack, bytes)
            when inferred_ack > t.wm_target && String.length bytes > 0 ->
              t.part_written <- true;
              submit_ctl t
                (Set
                   ( [
                       (Keys.part_key (ecid t), Keys.encode_part ~offset ~bytes);
                       (Keys.ack_key (ecid t), string_of_int inferred_ack);
                     ],
                     [
                       (fun () ->
                         if inferred_ack > t.wm_target then begin
                           t.wm_target <- inferred_ack;
                           confirm_watermark t
                         end);
                     ] ))
          | Some _ | None -> ())
      | None -> ()
  end

(* Deadline watch: the oldest held ACK, or a control-lane write unable
   to land, aging past [degrade_after] is the signal that durability is
   not coming in time — the deadline is chosen well inside the peer's
   hold timer, so shedding here is what keeps the session alive. *)
let check_degrade t =
  match t.degrade_after with
  | None -> ()
  | Some d ->
      (* Seeded fault: watch at twice the configured deadline, so
         obligations age past the bound before being shed — tripping
         [degraded_mode_exclusion] and nothing else. *)
      let d = if !Monitor.Faults.late_degrade then 2 * d else d in
      if (not t.degraded) && (not t.stopped) && t.wm <> None then begin
        let now = Engine.now t.eng in
        let held_over =
          (not (Queue.is_empty t.held))
          &&
          let _, since, _ = Queue.peek t.held in
          Time.diff now since >= d
        in
        let ctl_over =
          match t.ctl.blocked_since with
          | Some since -> Time.diff now since >= d
          | None -> false
        in
        if held_over || ctl_over then enter_degraded t
      end

(* Re-arms where [Engine.every] did, after the checks, so back-to-back
   ticks keep the poll's queue order. A tick in progress stays in
   [wd_tick], which keeps [arm_watchdog] from arming a second one. *)
let watchdog_tick t =
  check_stall t;
  check_degrade t;
  t.wd_tick <-
    (if (not t.stopped) && (busy t || must_poll t) then
       Some
         (Engine.schedule_after t.eng ~label:"repl.watchdog" watchdog_period
            t.wd_fire)
     else None)

let ensure_watchdog t =
  if not t.wd_started then begin
    t.wd_started <- true;
    t.wd_origin <- Engine.now t.eng;
    t.wd_fire <- (fun () -> watchdog_tick t);
    if busy t || must_poll t then arm_watchdog t
  end

let set_tail_source t source =
  t.tail_source <- Some source;
  ensure_watchdog t

let set_degrade_after t span =
  t.degrade_after <- span;
  (* The deadline must be watched even before a tail source exists. *)
  match span with
  | Some _ ->
      ensure_watchdog t;
      if must_poll t then arm_watchdog t
  | None -> ()

(* --- Receive replication ----------------------------------------------------- *)

let on_rx_message t ?raw msg ~inferred_ack =
  if t.replicate && (not t.stopped) && not t.degraded then begin
    Telemetry.Registry.incr m_rx_repl;
    let raw = match raw with Some raw -> raw | None -> Bgp.Msg.encode msg in
    let seq = t.in_seq in
    t.in_seq <- seq + 1;
    let key = Keys.in_key (ecid t) seq in
    let is_update = match msg with Bgp.Msg.Update _ -> true | _ -> false in
    let st = { in_key = key; durable = false; applied = false } in
    if is_update then Queue.push st t.unapplied;
    (* A completed message supersedes any replicated fragment. *)
    if t.part_written then begin
      t.part_written <- false;
      submit_ctl t (Del [ Keys.part_key (ecid t) ])
    end;
    let on_durable () =
      if inferred_ack > t.wm_target then begin
        t.wm_target <- inferred_ack;
        confirm_watermark t
      end;
      st.durable <- true;
      (* Non-update messages carry no table state: trim immediately;
         update replicas wait until they are also applied. *)
      if (not is_update) || st.applied then submit_bulk t (Del [ key ])
    in
    submit_ctl t
      (Set
         ( [
             (key, Keys.encode_in_record ~ack:inferred_ack ~raw);
             (Keys.ack_key (ecid t), string_of_int inferred_ack);
           ],
           [ on_durable ] ))
  end

let on_rx_applied t =
  if t.replicate && not (Queue.is_empty t.unapplied) then begin
    let st = Queue.pop t.unapplied in
    st.applied <- true;
    (* Ordered behind the routing-table checkpoint writes already queued
       by the apply step (same bulk lane, FIFO) — the paper's "remove
       only after applied". If the replica write is still in flight, the
       durability callback issues the delete instead. *)
    if st.durable then submit_bulk t (Del [ st.in_key ])
  end

(* --- Delayed sending ---------------------------------------------------------- *)

let on_tx_message t ~raw ~release =
  if (not t.replicate) || t.stopped || t.degraded then release ()
  else begin
    Telemetry.Registry.incr m_tx_repl;
    let offset = t.written in
    let len = String.length raw in
    t.written <- offset + len;
    Queue.push (offset, len) t.out_records;
    submit_ctl t
      (Set ([ (Keys.out_key (ecid t) offset, Keys.hex raw) ], [ release ]))
  end

(* --- Routing-table checkpoints ------------------------------------------------ *)

let on_rib_change t ~vrf change =
  if t.replicate && (not t.stopped) && not t.degraded then
    match change with
    | Bgp.Rib.Best_changed (prefix, path) ->
        submit_bulk t
          (Set
             ( [
                 ( Keys.rib_key ~service:t.service ~vrf prefix,
                   Keys.encode_rib_entry_with t.rib_enc path.Bgp.Rib.source
                     prefix path.Bgp.Rib.attrs );
               ],
               [] ))
    | Bgp.Rib.Best_withdrawn prefix ->
        submit_bulk t (Del [ Keys.rib_key ~service:t.service ~vrf prefix ])

(* --- Outbound trimming ---------------------------------------------------------- *)

let note_snd_una t ~iss ~snd_una =
  if t.replicate && (not t.stopped) && not t.degraded then begin
    let acked = snd_una - (iss + 1) in
    if acked > t.outtrim then begin
      t.outtrim <- acked;
      let ecid = ecid t in
      (* The records are in offset order and do not overlap, so their ends
         rise and the acked ones are a prefix of the queue. *)
      let rec trim acc =
        match Queue.peek_opt t.out_records with
        | Some (off, len) when off + len <= acked ->
            ignore (Queue.pop t.out_records);
            trim (Keys.out_key ecid off :: acc)
        | _ -> List.rev acc
      in
      let trimmed = trim [] in
      if trimmed <> [] then begin
        submit_bulk t (Set ([ (Keys.outtrim_key ecid, string_of_int acked) ], []));
        submit_bulk t (Del trimmed)
      end
    end
  end

let drain t k =
  let rec poll () =
    if
      Queue.is_empty t.ctl.queue
      && Queue.is_empty t.bulk.queue
      && (not t.ctl.inflight)
      && not t.bulk.inflight
    then k ()
    else
      ignore (Engine.schedule_after t.eng ~label:"repl.flush" (Time.ms 5) poll)
  in
  poll ()

let stop t =
  t.stopped <- true;
  stop_heal_probe t;
  (match t.wd_tick with
  | Some h ->
      Engine.cancel h;
      t.wd_tick <- None
  | None -> ());
  while not (Queue.is_empty t.held) do
    let ack, _, reinject = Queue.pop t.held in
    (* Flushed at detach without watermark cover. A stopped (fenced or
       dead) primary must not ACK bytes the store never confirmed, so the
       segment is dropped, and reported so the end-of-run queue balance
       (held = released + dropped) closes. *)
    if Telemetry.Gate.on () then
      Telemetry.Bus.emit t.eng
        (Telemetry.Event.Ack_dropped { conn = t.cid; ack });
    reinject Netfilter.Drop
  done
