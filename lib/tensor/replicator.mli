(** Kernel-free packet replication for one BGP connection (§3.1).

    One replicator per session. It implements, faithfully to the paper's
    mechanism:

    - {b receive replication}: every inbound BGP message (keepalives
      included) is written to the store together with its inferred ACK
      number. Processing proceeds concurrently; only the TCP ACK waits.
    - {b the tcp_queue thread}: an NFQUEUE consumer on the host's OUTPUT
      chain holds every egress segment whose ACK number exceeds the
      replicated-ACK watermark, and releases it (FIFO) once the covering
      write is durable {e and} a confirmation read of the watermark key
      has completed — the write-then-read sequence whose latency Figure
      5(b) characterizes.
    - {b delayed sending}: outgoing messages (main and keepalive thread
      alike) are written to the store, keyed by their send-stream byte
      offset, before release to TCP. No read-back is needed (§3.1.2).
    - {b storage trimming}: applied inbound messages are deleted after
      the corresponding routing-table checkpoint write is issued;
      outbound records below the peer-acknowledged offset are deleted
      periodically. Steady-state store usage per connection stays within
      the paper's ~64 KB bound.
    - {b routing-table checkpointing}: Loc-RIB changes are written as
      [rib|…] entries (and deletions) so a backup never replays history.

    Writes are batched with a depth-one pipeline: a batch accumulates
    while the previous one is in flight, which is what makes the ACK
    delay stay inside Figure 5(a)'s harmless region under update floods.

    Ablation switches: [~replicate:false] disables everything (baseline
    behaviour); [~ack_hold:false] keeps replication but releases ACKs
    immediately, opening exactly the inconsistency window §3.1.1 warns
    about (demonstrated in the test suite). *)

type t

val create :
  ?replicate:bool ->
  ?ack_hold:bool ->
  engine:Sim.Engine.t ->
  client:Store.Client.t ->
  conn_id:Keys.conn_id ->
  service:string ->
  unit ->
  t

val attach_output_chain :
  t -> Netfilter.t -> local:Netsim.Addr.t -> remote:Netsim.Addr.t -> unit
(** Installs the OUTPUT rule diverting this connection's egress segments
    to the replicator's queue, and registers the tcp_queue consumer. *)

val session_established : t -> irs:int -> unit
(** Initializes the watermark to [irs + 1]. Until this call, handshake
    segments pass unheld (there is nothing application-level to protect
    yet). *)

val session_down : t -> unit
(** The session's transport died without a handover: clears the
    watermark (back to pass-through, so a successor connection's
    handshake is not held against the dead stream's sequence space),
    flushes held segments (reported as [Ack_dropped]), retires the dead
    stream's send/receive accounting, and rolls the connection {!epoch}
    so a successor connection writes its stream records under a fresh
    key space. A later {!session_established} re-arms holding for the
    new stream. *)

val epoch : t -> int
(** The current connection epoch (0 for the first connection). The meta
    record written at establishment must carry this value: recovery
    reads only the epoch the meta record names, which is what makes a
    straggler write from a dead stream harmless. *)

val resume_at :
  t ->
  epoch:int ->
  watermark:int ->
  bytes_written:int ->
  in_seq:int ->
  outtrim:int ->
  out_records:(int * int) list ->
  unit
(** Recovery path: continue a predecessor's counters under its recorded
    epoch. [out_records] are the retained (offset, length) outbound
    replicas, re-tracked for future trimming. *)

val set_tail_source : t -> (unit -> (int * int * string) option) -> unit
(** Installs the partial-frame tail source — [(parsed_offset,
    inferred_ack, bytes)] for the fragment currently buffered in the
    framer — and starts the stall watchdog. When the tcp_queue has held a
    segment for longer than ~30 ms (a stalled sender, e.g. in RTO backoff
    with one MSS in flight, cannot complete the message that would
    normally advance the watermark), the watchdog replicates the fragment
    itself as a [part|…] record and releases the ACK. Recovery seeds the
    backup's framer with the fragment, so the invariant — every
    acknowledged byte is replicated — holds at byte granularity. *)

val on_rx_message : t -> ?raw:string -> Bgp.Msg.t -> inferred_ack:int -> unit
(** The receive-replication tap: stores the message's wire frame (all
    five types; UPDATE frames are what the backup replays) keyed by a
    receive counter, together with the inferred ACK. [raw] is the frame
    as received; without it the message is encoded again. *)

val on_rx_applied : t -> unit
(** The oldest outstanding UPDATE was applied to the routing table: emit
    its checkpoint-ordered deletion. *)

val on_tx_message : t -> raw:string -> release:(unit -> unit) -> unit
(** Delayed sending: [release] fires once the record is durable. *)

val on_rib_change : t -> vrf:string -> Bgp.Rib.change -> unit
(** Routing-table checkpointing. *)

val note_snd_una : t -> iss:int -> snd_una:int -> unit
(** Feeds the outbound trimmer (call periodically with the live
    connection's state). *)

val watermark : t -> int option
(** The replicated-ACK watermark (None before establishment). *)

val held_segments : t -> int
(** Segments currently held by the tcp_queue. How long each one waited
    before release — the acknowledgment delay TENSOR introduces (compare
    with the Figure 5(a) thresholds) — is observed, in seconds, into the
    [replicator.ack_hold_s] registry histogram. *)

val bytes_written : t -> int
val pending_unapplied : t -> int

(** {2 Degraded pass-through (store-outage survival)}

    Holding ACKs (and delaying sends) against a store that stays
    unreachable eventually turns an invisible recovery property into a
    very visible failure: the peer's hold timer fires and the session
    resets. Past a configurable deadline — a fraction of the negotiated
    hold time, chosen well inside both the keepalive interval and the
    peer's hold timer — the replicator instead {e sheds} its
    obligations: held ACKs are released without durability cover
    (reported as [Ack_shed]), pending message releases fire, and the
    session runs unprotected ([Degraded_enter]) until the store answers
    a probe again, at which point the application re-arms replication
    under a fresh epoch ({!prepare_rearm} / {!complete_rearm},
    [Degraded_exit]) and re-audits Adj-RIB-Out. *)

val set_degrade_after : t -> Sim.Time.span option -> unit
(** Arms (or disarms, with [None]) the held-ACK deadline and starts the
    watchdog that enforces it. Never armed by default: without a
    deadline the replicator blocks indefinitely, the pre-existing
    behaviour. *)

val degraded : t -> bool

val set_on_store_healed : t -> (unit -> unit) -> unit
(** Called (once per degraded episode) when the store answers the heal
    probe again. The application is expected to quiesce the stream,
    write the fresh epoch's baseline records, and call
    {!complete_rearm}. *)

val prepare_rearm : t -> int
(** Rolls the epoch for re-arming and returns it — the caller writes the
    new meta/cursor records under this epoch {e before} calling
    {!complete_rearm}, so a crash mid-re-arm recovers the old (stale but
    consistent) epoch. Raises [Invalid_argument] if not degraded. *)

val complete_rearm :
  t -> watermark:int -> stream_offset:int -> part_written:bool -> unit
(** Ends the degraded episode: the watermark and send-stream accounting
    restart from the freshly written baselines ([stream_offset] for both
    written and trimmed — the stream was quiesced), and held-ACK
    discipline resumes. *)

val drain : t -> (unit -> unit) -> unit
(** Invokes the callback once every queued store operation (both lanes)
    has completed — the quiesce step of a planned migration. *)

val stop : t -> unit
(** Ceases all activity (connection gone). Held segments are dropped,
    each reported as [Ack_dropped]: a stopped primary never ACKs bytes
    the store has not confirmed. *)
