(** A single BGP session: FSM, timers and message framing over TCP.

    The session owns the transport connection, the RFC 4271 state machine
    (Idle/Connect collapsed into [Connecting], then OpenSent, OpenConfirm,
    Established), the hold and keepalive timers, and the stream framer.
    It knows nothing about RIBs: every semantic event is reported through
    one callback, and the owning {!Speaker} decides what to do.

    Two construction paths exist beyond the ordinary active/passive open:
    {!resume} rebuilds an Established session from a TCP_REPAIR snapshot
    plus the negotiated parameters — the operation at the heart of
    TENSOR's NSR migration, §3.3.3 — without any wire handshake.

    The [pre_send] hook runs between the decision to send a message and
    the write to TCP; TENSOR installs its replicate-before-send logic
    (§3.1.2 "Outgoing BGP messages") there, covering the keepalive thread
    as well as the main thread. *)

type state = Idle | Connecting | Open_sent | Open_confirm | Established | Down

val pp_state : Format.formatter -> state -> unit

type down_reason =
  | Transport_failed of Tcp.close_reason
  | Notification_received of Msg.notification
  | Notification_sent of Msg.notification
      (** Includes a hold-timer expiry: the session sends NOTIFICATION
          code 4 (Hold Timer Expired) and goes down with that
          notification as its reason. Under RFC 4724 a NOTIFICATION
          ends graceful restart, so a hold expiry keeps no routes
          stale. *)
  | Stopped  (** Administrative stop. *)

val pp_down_reason : Format.formatter -> down_reason -> unit

type event =
  | Session_established of Msg.open_msg  (** The peer's OPEN. *)
  | Message_received of Msg.t * int
      (** A message and its wire size, after any replication hook. Fired
          for UPDATE and ROUTE-REFRESH only; OPEN/KEEPALIVE/NOTIFICATION
          are handled internally. *)
  | Session_went_down of down_reason

type config = {
  local_asn : int;
  router_id : Netsim.Addr.t;
  local_addr : Netsim.Addr.t option;
      (** Source address for the active open (a container's VRF address);
          [None] uses the node default. *)
  peer_addr : Netsim.Addr.t;
  peer_asn : int option;  (** Enforced when present. *)
  hold_time : int;  (** Proposed, seconds. *)
  port : int;
  passive : bool;
  graceful_restart : int option;  (** Advertised restart time. *)
  as4 : bool;
}

val default_hold_time : int
(** 90 s, the hold time every speaker proposes unless configured
    otherwise (RFC 4271 §10's suggested value). *)

type t

val start_active : Tcp.stack -> config -> cb:(t -> event -> unit) -> t
(** Opens the TCP connection and drives the handshake. *)

val accept_passive :
  Tcp.stack -> config -> conn:Tcp.conn -> cb:(t -> event -> unit) -> t
(** Adopts an accepted TCP connection (the speaker's listener matched it
    to this peer's config). *)

type negotiated = {
  peer_open : Msg.open_msg;
  hold_time : int;  (** min of both proposals. *)
  peer_supports_gr : bool;
  peer_gr_restart_time : int;
  as4_in_use : bool;
}

val resume :
  Tcp.stack ->
  config ->
  repair:Tcp.Repair.t ->
  negotiated:negotiated ->
  framer_seed:string ->
  cb:(t -> event -> unit) ->
  t
(** Recreates an Established session around an imported TCP connection.
    No messages are exchanged; timers restart afresh. [framer_seed]
    (usually empty) is a replicated partial-frame tail (when the predecessor acknowledged a
    message fragment, the stream is not message-aligned; the fragment
    must be restored into the framer so parsing continues correctly). *)

val set_on_message : t -> (Msg.t -> raw:string -> unit) -> unit
(** Observer invoked for {e every} inbound message — all five types,
    keepalives included — after parsing and before FSM handling, with
    the message's wire frame as received. This is TENSOR's
    receive-replication tap: at the instant it fires, {!parsed_bytes}
    already covers the message, so the inferred ACK is current. *)

val set_pre_send : t -> (Msg.t -> string -> (unit -> unit) -> unit) -> unit
(** Replication middleware for every outgoing message. The continuation
    must be invoked exactly once (possibly later) to release the message
    to TCP. Default: immediate. *)

val send : t -> Msg.t -> unit
(** Sends a message (through the pre_send hook). Raises
    [Invalid_argument] unless Established. *)

val stop : t -> unit
(** Sends a Cease NOTIFICATION and closes. *)

val state : t -> state
val negotiated : t -> negotiated option
val conn : t -> Tcp.conn option

val unparsed_tail : t -> string
(** The partial frame currently buffered in the framer (empty when the
    stream is message-aligned). *)

val parsed_bytes : t -> int
(** Application-stream bytes consumed by complete parsed messages. The
    TENSOR-inferred ACK for the last parsed message is
    [Tcp.irs conn + 1 + parsed_bytes]. *)

val last_write : t -> Sim.Time.t
(** Instant the most recent UPDATE was actually written to TCP (after the
    replication hook released it); keepalives do not count. *)

(** {1 Test-only} *)

val keepalives_in : t -> int
(** Inspection: KEEPALIVEs received, so tests check the timers keep an
    idle session alive. *)
