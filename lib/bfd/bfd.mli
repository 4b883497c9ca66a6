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
  ?detect_mult:int ->
  local:Netsim.Addr.t ->
  ?resume:int * int ->
  vrf:string ->
  remote:Netsim.Addr.t ->
  unit ->
  session
(** Sessions transmit every 100 ms ({!set_tx_interval} changes that
    live) from [local], with multiplier 3. The session starts
    transmitting immediately (state Down, initiating the three-way
    bring-up).

    [detect_mult] is a test seam: no product session varies it, and
    test_bfd varies it to check that detection scales with it.

    [resume (my_disc, your_disc)] is the NSR migration path: the session
    starts directly in Up with the given discriminators (replicated from
    the failed primary), so the remote peer — kept alive by the agent's
    relay meanwhile — never observes a state change. *)

val on_state_change : session -> (old:state -> state -> unit) -> unit
(** Fires on every transition, including the Up→Down detection that
    TENSOR treats as a VRF link-failure report. *)

val my_disc : session -> int
val your_disc : session -> int
(** Discriminators — what the agent needs to impersonate the session. *)

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
end

(** {1 Timer perturbation} *)

val set_tx_interval : session -> Sim.Time.span -> unit
(** Changes the transmit interval of a live session (the chaos engine's
    BFD timer-perturbation fault). The remote end learns the new
    interval from the next control packet and re-arms its detection
    window with it. Raises [Invalid_argument] on a non-positive span. *)

val tx_interval : session -> Sim.Time.span

(** {1 Test-only} *)

val stop_session : session -> unit
(** Kept: stops transmitting and detection (administrative down), the
    way tests silence one VRF's session while the others run on. *)

val session_state : session -> state
(** Inspection: the session's state; {!on_state_change} reports only
    transitions. *)

val last_rx : session -> Sim.Time.t option
(** Inspection: when the most recent control packet arrived — the
    peer-side liveness evidence detection deadlines are checked
    against. *)
