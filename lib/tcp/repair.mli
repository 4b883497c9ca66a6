(** TCP_REPAIR-style connection state transfer.

    Linux's [TCP_REPAIR] socket option lets a privileged process read and
    write the kernel state of an established connection — sequence
    numbers, negotiated options, queued data — which is how TENSOR reads
    the initial SEQ/ACK at session start (§3.1.2) and how a backup router
    resurrects the primary's connection after migration.

    A {!t} is a plain value: it can be stored in the replicated store,
    reconstructed from replicated BGP messages (the application-driven
    path TENSOR actually uses), or taken verbatim from a live connection
    ({!Tcp.export_repair}). Importing never contacts the peer: the first
    packets after import are ordinary TCP (retransmissions, ACKs), which
    is what makes the takeover transparent. *)

type t = {
  quad : Quad.t;
  mss : int;
  rcv_wnd : int;
  iss : int;  (** Our initial sequence number. *)
  irs : int;  (** Peer's initial sequence number. *)
  snd_una : int;  (** Lowest unacknowledged byte. *)
  snd_nxt : int;  (** Next byte to send. *)
  rcv_nxt : int;  (** Next expected byte — the ACK we advertise. *)
  peer_wnd : int;  (** Last advertised peer window. *)
  unacked : (int * string) list;
      (** Sequence-tagged send data from [snd_una] to [snd_nxt]; replayed
          to the peer when the importing side retransmits. *)
}

val consistent : t -> bool
(** Structural sanity: [iss <= snd_una <= snd_nxt], [irs < rcv_nxt], and
    [unacked] exactly tiles [\[snd_una, snd_nxt)]. Import refuses
    inconsistent states. *)
