(** A BGP speaker: one routing process, as deployed in one TENSOR
    container.

    The speaker owns VRFs (each a {!Rib.t}), the peer sessions bound to
    them, and the export machinery (per-peer policies, eBGP/iBGP rules,
    update packing). It models the paper's common BGP threading structure
    (§3.1.2): a {e main thread} whose work is represented by a serialized
    CPU-cost budget (the [profile]), an {e IO thread} (the TCP stack's
    per-segment cost), and a {e keepalive thread} (session-internal
    keepalives that never wait behind main-thread work).

    Export work is paid per attribute set and per peer: a batch of
    changes sharing one path source and attribute set is rewritten for a
    peer once, and packing groups the adverts without sorting them. Only
    [Policy.apply] (whose rules can match on the prefix) and the list
    cells run per prefix. The UPDATE frames and their order are those of
    a stable sort of the adverts by {!Attrs.compare}, grouped into runs.

    The [profile] carries the per-update and per-message costs that
    distinguish FRRouting, GoBGP, BIRD and TENSOR in the paper's Figure 6,
    including whether {e update packing} (§4.2) is implemented.

    The [hooks] are TENSOR's integration points: replicate-on-receive
    (with the inferred ACK number of §3.1.2), replicate-before-send, and
    routing-table checkpointing on every Loc-RIB change. With [no_hooks]
    the speaker behaves like a plain open-source daemon. *)

type profile = {
  profile_name : string;
  rx_per_update : Sim.Time.span;  (** Main-thread cost per learned route. *)
  rx_per_msg : Sim.Time.span;
  tx_per_update : Sim.Time.span;  (** Generation cost per route (first copy). *)
  tx_per_msg : Sim.Time.span;
  tx_clone_per_msg : Sim.Time.span;
      (** Per additional peer per packed message (update packing's cheap
          replication path). *)
  tx_coalesce : Sim.Time.span;
      (** Advertisement coalescing delay before dispatching an export
          batch — every real daemon batches route advertisements behind a
          short timer, which is the ~40 ms floor all implementations show
          at small update counts in Figure 6(a). *)
  update_packing : bool;
}

val default_profile : profile
(** FRRouting-like: 4 µs/update rx, packing enabled. *)

type t
type peer

type hooks = {
  on_rx_replicate : peer -> Msg.t -> raw:string -> inferred_ack:int -> unit;
      (** Invoked when a message has been parsed, {e before} main-thread
          processing (replication runs concurrently with processing;
          §3.1.1). [raw] is the message's wire frame as received;
          [inferred_ack] is the TCP ACK number covering the message. *)
  on_tx_replicate : peer -> Msg.t -> string -> (unit -> unit) -> unit;
      (** Delayed sending: invoked with the encoded frame; the
          continuation releases the message to TCP. Covers keepalives. *)
  on_rib_change : vrf:string -> Rib.change -> unit;
      (** Loc-RIB checkpointing (§3.1.2 "BGP routing tables"). *)
  on_updates_applied : vrf:string -> int -> unit;
      (** Progress signal: [n] updates just applied to the RIB. *)
  on_rx_applied : peer -> Msg.t -> unit;
      (** A received message has been fully applied to the routing table —
          the trigger for trimming its replica from the store (§3.1.2
          "Storage overhead"). Fired in receive order per peer. *)
}

val no_hooks : hooks

val create :
  ?profile:profile ->
  ?hooks:hooks ->
  stack:Tcp.stack ->
  local_asn:int ->
  router_id:Netsim.Addr.t ->
  unit ->
  t
(** The speaker starts listening on port 179 immediately; active
    sessions start per-peer via {!add_peer} + {!start_peer} or
    {!start}. *)

val stack : t -> Tcp.stack
val engine : t -> Sim.Engine.t
val local_asn : t -> int
val router_id : t -> Netsim.Addr.t

(** {1 VRFs} *)

val add_vrf : t -> string -> unit
(** Idempotent. *)

val vrfs : t -> string list
val rib : t -> vrf:string -> Rib.t
(** Raises [Not_found] for an unknown VRF. *)

(** {1 Peers} *)

type peer_config = {
  vrf : string;
  remote_addr : Netsim.Addr.t;
  local_addr : Netsim.Addr.t option;
      (** Source address for the session (the VRF's service address on
          multi-VRF containers); [None] uses the node default. *)
  remote_asn : int option;  (** Enforced when set; iBGP when equal to ours. *)
  passive : bool;
  hold_time : int;
  policy_in : Policy.t;
  policy_out : Policy.t;
  graceful_restart : int option;  (** Advertised restart time (s). *)
  reconnect : Sim.Time.span option;
      (** Backoff before re-opening a dropped active session. *)
}

val default_peer_config :
  vrf:string -> remote_addr:Netsim.Addr.t -> unit -> peer_config
(** Active, hold {!Session.default_hold_time}, empty policies, GR 120 s,
    reconnect after 5 s. *)

val add_peer : t -> peer_config -> peer
(** Registers the peer (and its VRF if new). Does not connect yet. *)

val start_peer : t -> peer -> unit
(** Starts the active open (no-op for passive peers, which are adopted by
    the listener). *)

val start : t -> unit
(** {!start_peer} for every registered peer. *)

val request_refresh : t -> peer -> unit
(** Sends a ROUTE-REFRESH (RFC 2918) asking the peer to resend its
    Adj-RIB-Out — the standard way to re-evaluate a changed import policy
    without bouncing the session. No-op unless Established. *)

val stop_peer : t -> peer -> unit
(** Administrative stop (Cease); disables auto-reconnect until
    {!start_peer}. *)

val peers : t -> peer list
val peer_state : peer -> Session.state
val peer_cfg : peer -> peer_config
val peer_session : peer -> Session.t option
val peer_source_key : peer -> string
val on_peer_up : peer -> (unit -> unit) -> unit
val on_peer_down : peer -> (Session.down_reason -> unit) -> unit

(** {1 Routes} *)

val originate : t -> vrf:string -> ?attrs:Attrs.t -> Netsim.Addr.prefix list -> unit
(** Installs locally originated routes (empty AS path, next hop = router
    id unless [attrs] overrides) and advertises the resulting changes. *)

val withdraw_origin : t -> vrf:string -> Netsim.Addr.prefix list -> unit

val restore_route :
  t -> vrf:string -> Rib.source -> Netsim.Addr.prefix -> Attrs.t -> unit
(** NSR restore path: installs a checkpointed path {e without} exporting
    the change (the failed primary already advertised it; re-announcing
    would be reconvergence, which NSR avoids). *)

val resume_peer :
  t ->
  peer_config ->
  repair:Tcp.Repair.t ->
  negotiated:Session.negotiated ->
  ?framer_seed:string ->
  unit ->
  peer
(** The NSR migration path: adopts an Established session rebuilt from a
    TCP_REPAIR snapshot and the primary's negotiated parameters. No
    handshake and no table sync happen — the peer never learns the
    speaker changed machines. *)

val resync_adj_out : t -> peer -> unit
(** Post-takeover Adj-RIB-Out audit: re-sends the full table to a resumed
    peer. An UPDATE the failed primary generated but never stored was
    never on the wire (delayed sending), and nothing else regenerates it;
    routes the peer already holds arrive as implicit updates with
    identical attributes, so the audit is invisible at the RIB level. *)

val replay_update : t -> peer -> Msg.update -> unit
(** Recovery replay: applies a replicated-but-unapplied UPDATE through
    the normal receive path (policy, RIB, checkpoint hooks) without a
    transport. Used by the backup after {!resume_peer}. *)

(** {1 Update packing} *)

val build_messages :
  (Netsim.Addr.prefix * Attrs.t) list -> Netsim.Addr.prefix list -> Msg.t list
(** [build_messages adverts withdraws] is the UPDATE sequence for one
    export batch: the withdrawals in order, chunked to fit a message, then
    the adverts grouped by equal attributes, groups in {!Attrs.compare}
    order and prefixes in input order, each group chunked to fit a
    message. Every speaker export goes through it; exposed for tests. *)

(** {1 Statistics} *)

val updates_learned : t -> int
(** Cumulative routes (NLRI + withdrawals) applied to RIBs. *)

val updates_sent : t -> int
(** Cumulative routes handed to the IO thread. *)

val messages_sent : t -> int
val last_tx_handoff : t -> Sim.Time.t
(** Instant the most recent outgoing message reached TCP. *)

val last_rx_applied : t -> Sim.Time.t
(** Instant the most recent received update finished RIB application. *)
