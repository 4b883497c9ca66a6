(** Typed structured events.

    Every notable occurrence in the NSR pipeline is a variant carrying
    the fields the paper's evaluation reads off (node, peer, sequence
    numbers, byte counts, durations) instead of a formatted string.
    Events are grouped into per-subsystem categories. A recovery's
    phases (Table 1's columns and the health budgets) are paired from
    milestones of several categories by {!Phase.of_entries}: [Failure_injected], [Planned_migration],
    [Failure_detected], [Migration_initiated], [Migration_done] and
    [Tcp_synced] ([Orch]), [Catchup_start] and [Catchup_done]
    ([Replicator]), and [Bfd_down] ([Bfd]). *)

type category = Tcp | Bgp | Bfd | Netfilter | Replicator | Orch | Store | Fleet

type t =
  (* tcp *)
  | Seg_retransmit of { conn : string; seq : int; len : int }
  | Rto_fired of { conn : string; backoff : int; rto_s : float }
  | Repair_export of {
      conn : string;
      unacked : int;
      snd_una : int;
      snd_nxt : int;
      rcv_nxt : int;
    }
  | Repair_import of {
      conn : string;
      unacked : int;
      snd_una : int;
      snd_nxt : int;
      rcv_nxt : int;
    }
  | Session_frozen of { node : string; conns : int }
  (* bgp *)
  | Session_established of { node : string; peer : string }
  | Session_down of { node : string; peer : string; reason : string }
  | Session_resumed of { node : string; peer : string }
  | Rib_snapshot of { node : string; vrf : string; size : int; digest : string }
  | Routes_withdrawn of { node : string; peer : string; count : int }
  (* bfd *)
  | Bfd_up of { node : string; peer : string; vrf : string }
  | Bfd_down of {
      node : string;
      peer : string;
      vrf : string;
      silent_s : float;
      interval_s : float;
      mult : int;
    }
  (* netfilter *)
  | Queue_dropped of { qnum : int; depth : int }
  (* replicator *)
  | Ack_held of { conn : string; ack : int; depth : int }
  | Ack_released of { conn : string; ack : int; held_s : float }
  | Ack_dropped of { conn : string; ack : int }
  | Ack_shed of { conn : string; ack : int; held_s : float }
    (** Flushed without durability at degraded-mode entry: the deadline
        expired, so the ACK is released to keep the peer's window open
        while NSR protection is suspended. Distinct from [Ack_released]
        (durable) and [Ack_dropped] (stream died). *)
  | Degraded_enter of { conn : string; held : int; oldest_held_s : float }
  | Degraded_exit of { conn : string; degraded_s : float; epoch : int }
  | Wm_durable of { conn : string; ack : int }
  | Catchup_start of { service : string; vrf : string }
  | Catchup_done of { service : string; vrf : string; msgs : int; bytes : int }
  | Replica_promoted of { service : string; container : string }
  (* orch *)
  | Container_state of { id : string; host : string; state : string }
  | Failure_detected of { id : string; kind : string }
  | Migration_initiated of { id : string }
  | Migration_done of { id : string; host : string; container : string }
  | Host_suspect of { host : string }
  | Host_failed of { host : string }
  | Failure_injected of { service : string; kind : string }
  | Planned_migration of { service : string }
  | Tcp_synced of { service : string; vrf : string }
  | Store_unreachable of { node : string }
  | Store_recovered of { node : string; outage_s : float }
  | Migration_deferred of { id : string; reason : string }
  (* store *)
  | Store_crashed of { node : string }
  | Store_restarted of { node : string }
  | Store_promoted of { node : string }
  | Store_failover of { client : string; attempts : int }
  | Rpc_unknown_service of { node : string; service : string; count : int }
  (* fleet *)
  | Fleet_placed of {
      service : string;
      instance : string;
      region : string;
      host : string;
      container : string;
    }
    (** An instance (replica of a fleet service) was placed: at initial
        deployment and never again — post-migration container identity
        travels on [Migration_done] / [Upgrade_done]. *)
  | Upgrade_started of {
      instance : string;
      wave : int;
      inflight : int;
      bound : int;
    }
    (** A rolling-upgrade drain began for [instance]; [inflight] counts
        this one, and must never exceed [bound]. *)
  | Upgrade_done of { instance : string; wave : int; container : string }
  | Fleet_degraded of { instance : string; region : string }
    (** The instance shed NSR protection because its region store went
        unreachable (fleet-level view of PR 6's degraded mode). *)
  | Fleet_rearmed of { instance : string; region : string; degraded_s : float }
  (* escape hatch *)
  | Generic of { cat : category; name : string; detail : string }

val to_json : t -> string
(** One JSON object: [{"cat":...,"ev":...,"f":{...}}]. *)

val json_escape : string -> string
(** Escapes a string for embedding in a JSON string literal. *)

val json_float : float -> string
(** A float as a JSON number ([%.9g]); [null] for NaN and the
    infinities, which JSON cannot spell. *)
