(** TCP segments.

    Sequence and acknowledgment numbers are monotonically increasing
    OCaml ints rather than mod-2^32 values: simulation volumes never
    approach wrap-around, and monotone numbers make the ACK-inference
    arithmetic of TENSOR (§3.1.2, "Matching ACK numbers") directly
    testable. The initial numbers are still randomized per connection, as
    TENSOR's TCP_REPAIR bootstrap relies on reading them at connect
    time. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type t = {
  src_port : int;
  dst_port : int;
  seq : int;  (** Sequence number of the first payload byte. *)
  ack : int;  (** Cumulative acknowledgment; meaningful when [flags.ack]. *)
  window : int;  (** Advertised receive window, bytes. *)
  payload : string;
  flags : flags;
}

type Netsim.Packet.payload += Tcp of t

val flag_syn : flags
val flag_ack : flags
val flag_synack : flags
val flag_fin_ack : flags
val flag_rst : flags

val seg_len : t -> int
(** Sequence space the segment occupies: payload length plus one for SYN
    and one for FIN. *)

val wire_size : t -> int
(** [header_bytes] plus the payload length. *)

val is_pure_ack : t -> bool
(** ACK set, no payload, no SYN/FIN/RST — the packets TENSOR's tcp_queue
    intercepts. *)
