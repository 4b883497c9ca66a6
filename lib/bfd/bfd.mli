(** Bidirectional Forwarding Detection (RFC 5880, asynchronous mode).

    Each TENSOR container runs one BFD process whose VRFs map one-to-one
    to the VRFs of its BGP process (§3.3.2). Sessions transmit control
    packets every [tx_interval] and declare the path down when no packet
    arrives for [detect_mult × remote interval] — the paper's deployment
    uses 100 ms × 3.

    Two extra facilities support TENSOR:

    - {!on_state_change} is the IPC channel by which BFD reports VRF link
      failures to the BGP process and the container supervisor.
    - {!Relay} is the agent server's "duplicate BFD process": a
      transmitter that keeps emitting Up-state packets with the
      container's source address and discriminators, so the remote AS
      never detects the primary's failure while a backup boots. *)

type state = Admin_down | Down | Init | Up

val pp_state : Format.formatter -> state -> unit

type control = {
  vrf : string;
  my_disc : int;
  your_disc : int;
  state : state;
  detect_mult : int;
  tx_interval : Sim.Time.span;  (** Sender's desired min TX. *)
}

type Netsim.Packet.payload += Bfd of control

(** {1 Endpoint and sessions} *)

type endpoint
(** Per-node BFD process demultiplexing sessions by (peer, vrf). *)

type session

val endpoint : Netsim.Node.t -> endpoint

val create_session :
  endpoint ->
  ?tx_interval:Sim.Time.span ->
  ?detect_mult:int ->
  ?local:Netsim.Addr.t ->
  ?resume:int * int ->
  vrf:string ->
  remote:Netsim.Addr.t ->
  unit ->
  session
(** Defaults: 100 ms interval, multiplier 3, local = node's first
    address. The session starts transmitting immediately (state Down,
    initiating the three-way bring-up).

    [resume (my_disc, your_disc)] is the NSR migration path: the session
    starts directly in Up with the given discriminators (replicated from
    the failed primary), so the remote peer — kept alive by the agent's
    relay meanwhile — never observes a state change. *)

val stop_session : session -> unit
(** Stops transmitting and detection (administrative down). *)

val session_state : session -> state

val on_state_change : session -> (old:state -> state -> unit) -> unit
(** Fires on every transition, including the Up→Down detection that
    TENSOR treats as a VRF link-failure report. *)

val my_disc : session -> int
val your_disc : session -> int
(** Discriminators — what the agent needs to impersonate the session. *)

val vrf : session -> string
val remote : session -> Netsim.Addr.t
val local : session -> Netsim.Addr.t

val packets_in : session -> int
val packets_out : session -> int

val last_rx : session -> Sim.Time.t option
(** When the most recent control packet arrived — the peer-side liveness
    evidence. *)

(** {1 The agent's relay transmitter} *)

module Relay : sig
  type t

  val start :
    Netsim.Node.t ->
    src:Netsim.Addr.t ->
    dst:Netsim.Addr.t ->
    vrf:string ->
    my_disc:int ->
    your_disc:int ->
    unit ->
    t
  (** Transmits Up-state control packets from [src] (the container's
      address, not the agent's) every 100 ms until {!stop}. Purely
      transmit-side: the relay never receives. *)

  val stop : t -> unit
  val packets_sent : t -> int
end

(** {1 Timer perturbation} *)

val set_tx_interval : session -> Sim.Time.span -> unit
(** Changes the transmit interval of a live session (the chaos engine's
    BFD timer-perturbation fault). The remote end learns the new
    interval from the next control packet and re-arms its detection
    window with it. Raises [Invalid_argument] on a non-positive span. *)

val tx_interval : session -> Sim.Time.span
