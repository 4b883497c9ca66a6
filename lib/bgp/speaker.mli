(** A BGP speaker: one routing process, as deployed in one TENSOR
    container.

    The speaker owns VRFs (each a {!Rib.t}), the peer sessions bound to
    them, and the export machinery (per-peer policies, eBGP/iBGP rules,
    update packing). It models the paper's common BGP threading structure
    (§3.1.2): a {e main thread} whose work is represented by a serialized
    CPU-cost budget (the [profile]), an {e IO thread} (the TCP stack's
    per-segment cost), and a {e keepalive thread} (session-internal
    keepalives that never wait behind main-thread work).

    Every Loc-RIB change flows through one change buffer the speaker
    owns and reuses ({!Rib.Changes}): the RIB appends to it, the
    checkpoint hook sees each change in order, and then, per target, one
    back-to-front walk over the buffer rewrites each attribute set once
    (a memo keyed on the path's source and attrs), applies the out-policy
    per prefix (skipped when it accepts everything) and conses each
    prefix onto its attribute run, so each run's NLRI list comes out in
    batch order with no tuple, advert list or reversal in between. The
    runs are then sorted by {!Attrs.compare}, equal runs merged and
    chunked; the withdrawals are chunked once per batch for every
    target. The UPDATE frames and their order are those of a stable
    sort of the adverts by {!Attrs.compare}, grouped into runs.

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

(** {1 VRFs} *)

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
  policy_in : Policy.t;
  policy_out : Policy.t;
      (** Only tests set policies other than {!Policy.empty}; see
          {!Policy.make} for why they stay. *)
}
(** Every session offers hold time {!Session.default_hold_time} and
    advertises a graceful-restart time of 120 s; a dropped active session
    re-opens after 5 s. *)

val default_peer_config :
  ?remote_asn:int ->
  ?passive:bool ->
  ?local_addr:Netsim.Addr.t ->
  vrf:string ->
  remote_addr:Netsim.Addr.t ->
  unit ->
  peer_config
(** Active unless [passive], no enforced remote AS unless [remote_asn],
    the node's default source address unless [local_addr], empty
    policies. *)

val add_peer : t -> peer_config -> peer
(** Registers the peer (and its VRF if new). Does not connect yet. *)

val start_peer : t -> peer -> unit
(** Starts the active open (no-op for passive peers, which are adopted by
    the listener). *)

val start : t -> unit
(** {!start_peer} for every registered peer. *)

val stop_peer : t -> peer -> unit
(** Administrative stop (Cease); disables auto-reconnect until
    {!start_peer}. *)

val peers : t -> peer list
val peer_state : peer -> Session.state

val all_established : t -> bool
(** Every registered peer's session is Established. *)

val peer_cfg : peer -> peer_config
val peer_session : peer -> Session.t option
val peer_conn : peer -> Tcp.conn option
(** The live session's transport connection, if any. *)

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
  framer_seed:string ->
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

(** {1 Statistics} *)

val updates_learned : t -> int
(** Cumulative routes (NLRI + withdrawals) applied to RIBs. *)

val updates_sent : t -> int
(** Cumulative routes handed to the IO thread. *)

val last_tx_handoff : t -> Sim.Time.t
(** Instant the most recent outgoing message reached TCP. *)

val last_rx_applied : t -> Sim.Time.t
(** Instant the most recent received update finished RIB application. *)

(** {1 Test-only} *)

val default_profile : profile
(** Kept: the profile {!create} defaults to (FRRouting-like: 4 µs/update
    rx, packing enabled), so tests vary one field of it. *)

val stack : t -> Tcp.stack
(** Inspection: the speaker's TCP stack, so tests can silence its
    node. *)

val pack_changes : Rib.Changes.t -> Msg.t list
(** Inspection: the product packer on its own. The UPDATE sequence for one batch whose adverts go out with their
    paths' own attributes: the withdrawals in order, chunked to fit a
    message, then the adverts grouped by equal attributes, groups in
    {!Attrs.compare} order and prefixes in batch order, each group
    chunked to fit a message. Every speaker export packs this way, after
    rewriting each path for its target; exposed for tests. *)

val messages_sent : t -> int
(** Inspection: messages this speaker handed to TCP, so tests check
    packing and re-sends per speaker. *)
