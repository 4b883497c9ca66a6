(** Figure 5(a): TCP maximum throughput as a function of the
    acknowledgment delay, for several packet sizes.

    An iperf-like bulk sender streams to a receiver whose pure ACKs are
    held in an NFQUEUE for a fixed delay (TENSOR's mechanism with a
    constant in place of the store confirmation). Endpoints are
    pps-limited (per-segment CPU cost) and the receive window is 400 KB,
    so the throughput is [min(pps × size, W / (RTT + delay))]: flat until
    the size-dependent threshold, then collapsing — the paper's reported
    thresholds are 20/10/5/2/2 ms for 100/200/500/1000/2000-byte
    packets. *)

type point = { delay_ms : float; throughput_bps : float }
type series = { packet_size : int; points : point list }

val run :
  ?packet_sizes:int list ->
  ?delays_ms:float list ->
  ?measure_span:Sim.Time.span ->
  unit ->
  series list

val print : series list -> unit

(** {1 Test-only} *)

val threshold_ms : series -> float
(** The largest measured delay whose throughput is still within 5 % of
    the zero-delay throughput. *)
