(** Netfilter-style packet hooks.

    This is the simulator's rendition of the Linux facility TENSOR builds
    on (§3.1.2): a per-host OUTPUT chain that every locally generated
    egress packet traverses, with rules returning verdicts. A [Queue n]
    verdict diverts the packet to an NFQUEUE-like target whose userspace
    consumer later reinjects it with a final verdict — exactly the
    mechanism TENSOR's [tcp_queue] thread uses to hold TCP ACKs until the
    corresponding BGP message is known to be replicated.

    No kernel semantics beyond rule traversal and queue/reinject are
    modelled, because the paper uses nothing else. *)

type verdict =
  | Accept  (** Let the packet out. *)
  | Drop  (** Silently discard. *)
  | Queue of int  (** Divert to the numbered queue. *)

type t
(** A hook chain (one per protocol stack attachment). *)

type rule
(** Handle for removing an installed rule. *)

val create : ?eng:Sim.Engine.t -> unit -> t
(** An empty chain: every packet is accepted. With [eng], packets
    dropped at a reader-less queue are reported to the telemetry bus
    as [Queue_dropped] events. *)

val add_rule : t -> (Netsim.Packet.t -> verdict) -> rule
(** Installs a rule after every rule already installed: rules run in
    installation order. *)

val remove_rule : t -> rule -> unit

type queue
(** An NFQUEUE target. *)

val fresh_queue_num : t -> int
(** A queue number not yet handed out by this allocator (a per-chain
    counter from 1). Queue numbers are chain-local, so allocating them
    per chain — rather than from process-global state — keeps
    [Queue_dropped] telemetry byte-identical across repeated runs in one
    process. *)

val queue : t -> int -> queue
(** [queue t n] is the chain's queue number [n], created on first use. *)

val set_consumer :
  queue ->
  (Netsim.Packet.t -> reinject:(verdict -> unit) -> unit) ->
  unit
(** Registers the userspace consumer. For each queued packet the consumer
    receives a [reinject] continuation to be called exactly once, now or
    from a later event. Packets queued while no consumer is attached are
    {e dropped} — real NFQUEUE semantics, and load-bearing for TENSOR:
    when the BGP process (and its tcp_queue thread) crashes, the kernel's
    dying FIN/RST is queued to a reader-less queue and silently dropped,
    so the remote peer observes silence rather than a connection reset. *)

val traverse : t -> Netsim.Packet.t -> emit:(Netsim.Packet.t -> unit) -> unit
(** Runs the packet through the rules. [emit] is called (possibly later,
    for queued packets) for packets whose final verdict is [Accept]. *)

(** {1 Test-only} *)

val backlog : queue -> int
(** Inspection: packets handed to the consumer whose reinject is still
    pending; the [netfilter.queue_depth] gauge shows the last queue
    touched, this one queue's. *)
