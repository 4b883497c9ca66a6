(** A userspace TCP for the simulator.

    One {!stack} per node demultiplexes segments to connections by
    four-tuple and serializes all segment handling through a modelled
    per-stack CPU cost, which gives endpoints a packets-per-second limit
    (the quantity that, together with the receive window, produces the
    throughput thresholds of the paper's Figure 5(a)).

    The stack optionally routes every locally generated segment through a
    {!Netfilter} OUTPUT chain, which is where TENSOR's kernel-free packet
    replication intercepts and delays ACKs.

    Connections implement: three-way handshake, cumulative ACKs, flow
    control against the advertised window, Reno congestion control with
    fast retransmit/recovery, RTO with exponential backoff and Karn's
    rule, out-of-order reassembly, duplicate-data tolerance (re-ACK),
    FIN/RST teardown, and TCP_REPAIR-style export/import for transparent
    migration. *)

module Segment = Segment
module Congestion = Congestion
module Stream_buf = Stream_buf
module Quad = Quad
module Repair = Repair

type stack
type conn

type state =
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closed

type close_reason =
  | Closed_normally  (** FIN exchange completed. *)
  | Reset  (** RST received or {!abort} called. *)
  | Timed_out  (** Retransmission retries exhausted. *)

val pp_state : Format.formatter -> state -> unit
val pp_close_reason : Format.formatter -> close_reason -> unit

(** {1 Stacks} *)

val create_stack :
  ?proc_cost:Sim.Time.span ->
  ?proc_cost_per_kb:Sim.Time.span ->
  ?hook_cost:Sim.Time.span ->
  Netsim.Node.t ->
  stack
(** [create_stack node] attaches a TCP stack to [node]. [proc_cost] is
    the CPU time consumed per segment sent or received (default 2 µs,
    i.e. 500k segments/s); [proc_cost_per_kb] adds a payload-size
    component (default 0 — endpoints are packet-rate-limited, with a
    byte-rate term available for experiments such as Figure 5(a)).
    The RTO stays between 200 ms and 60 s, and a connection times out
    after 8 retries. *)

val stack_node : stack -> Netsim.Node.t
val stack_engine : stack -> Sim.Engine.t

val set_output_chain : stack -> Netfilter.t option -> unit
(** Installs (or removes) the OUTPUT hook chain for egress segments. *)

val freeze_stack : stack -> unit
(** Models the owning process dying abruptly: the stack stops sending
    (including retransmissions) and stops processing arrivals. No FIN or
    RST is emitted — a crashed process's kernel-side teardown is
    intercepted by the NFQUEUE rule in TENSOR's design, so from here on
    the connection is simply silent. Connections remain importable from a
    prior repair snapshot elsewhere. *)

val is_frozen : stack -> bool

val output_chain : stack -> Netfilter.t option

val listen : stack -> port:int -> (conn -> unit) -> unit
(** [listen stack ~port accept] invokes [accept] for each connection that
    completes the handshake on [port]. *)

val unlisten : stack -> port:int -> unit

val connect :
  stack ->
  ?src:Netsim.Addr.t ->
  ?mss:int ->
  ?rcv_wnd:int ->
  dst:Netsim.Addr.t ->
  dst_port:int ->
  unit ->
  conn
(** Starts an active open (SYN sent on the next event). [src] selects the
    local address (default: the node's first address — nodes holding
    several service addresses must bind explicitly); [mss] defaults to
    1460, [rcv_wnd] to 400 000 bytes. Register {!on_established} and
    {!on_close} to learn the outcome. *)

val connections : stack -> conn list

(** {1 Connection I/O} *)

val write : conn -> string -> unit
(** Appends bytes to the send stream; transmission is window-paced.
    Writing to a closed connection raises [Invalid_argument]. *)

val close : conn -> unit
(** Graceful close: FIN after all written data. *)

val abort : conn -> unit
(** Sends RST and tears down immediately. *)

val on_established : conn -> (unit -> unit) -> unit
val on_data : conn -> (string -> unit) -> unit
(** In-order stream chunks, invoked as they are delivered. *)

val on_close : conn -> (close_reason -> unit) -> unit

val on_remote_close : conn -> (unit -> unit) -> unit
(** Invoked when the peer's FIN is accepted (half-close): the connection
    enters [Close_wait] and the application should finish and {!close}. *)

(** {1 Inspection} *)

val state : conn -> state
val quad : conn -> Quad.t
val mss : conn -> int
val iss : conn -> int
val irs : conn -> int
(** Initial sequence numbers — what TENSOR reads via TCP_REPAIR at session
    start to seed ACK inference. *)

val snd_una : conn -> int
val snd_nxt : conn -> int
val rcv_nxt : conn -> int
val delivered_bytes : conn -> int
(** Cumulative stream bytes handed to the application. The inferred
    current ACK number is [irs + 1 + delivered_bytes]. *)

val bytes_acked : conn -> int
val retransmits : conn -> int
val segments_in : conn -> int
val segments_out : conn -> int
val srtt : conn -> float option
(** Smoothed RTT in seconds, once sampled. *)

(** {1 Migration} *)

val export_repair : conn -> Repair.t
(** Snapshot of the live connection, sufficient to resurrect it
    elsewhere. *)

val import_repair : stack -> Repair.t -> conn
(** Recreates an established connection from a snapshot. The unacked data
    is queued for retransmission (the peer discards what it already has
    and ACKs, which resynchronizes both ends). Raises [Invalid_argument]
    if the snapshot fails {!Repair.consistent} or the quad is already in
    use on this stack. *)
