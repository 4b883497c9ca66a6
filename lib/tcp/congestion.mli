(** TCP Reno congestion control.

    Slow start, congestion avoidance, fast retransmit on three duplicate
    ACKs, fast recovery with window inflation, and multiplicative decrease
    on retransmission timeout. This is the classic algorithm whose
    window-vs-delay behaviour produces the throughput ceilings of the
    paper's Figure 5(a) (see the TCP throughput models it cites,
    Padhye et al. and NewReno analyses). *)

type t

type ack_reaction =
  | Ack_advanced  (** New data acknowledged. *)
  | Fast_retransmit  (** Third duplicate ACK: resend [snd_una] now. *)
  | Ignore  (** Duplicate ACK below the retransmit threshold, or noise. *)

val create : mss:int -> t
(** Initial window is 10 MSS (modern initcwnd), initial ssthresh is
    effectively unbounded. *)

val window : t -> int
(** Current congestion window in bytes. *)

val on_ack : t -> snd_una:int -> snd_nxt:int -> ack:int -> ack_reaction
(** Feed every incoming ACK. [snd_una]/[snd_nxt] are the values {e before}
    the ACK is applied. Updates the window and duplicate-ACK state, and
    tells the connection whether to fast-retransmit. *)

val on_rto : t -> unit
(** Retransmission timeout: collapse to one MSS, halve ssthresh. *)

(** {1 Test-only} *)

val ssthresh : t -> int
(** Inspection: the slow-start threshold, which only steers {!window};
    tests check fast retransmit halves it. *)

val in_recovery : t -> bool
(** Inspection: whether fast recovery is on, the state behind the
    window's deflation that tests check. *)
