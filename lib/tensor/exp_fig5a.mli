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

val iperf :
  stack:(Netsim.Node.t -> Tcp.stack) ->
  egress:(Sim.Engine.t -> tx:Tcp.stack -> rx:Tcp.stack -> unit) ->
  mss:int ->
  measure_span:Sim.Time.span ->
  float
(** The one iperf rig: a bulk sender streams to a receiver 50 µs away
    (port 5001, 400 KB receive window, segments of [mss] bytes), keeping
    three windows buffered ahead of the ACK point with a refill every
    5 ms. [stack] builds both endpoints' TCP stacks (their costs);
    [egress] may install output chains on them. Returns the receiver's
    throughput in bits/s over [measure_span] after a 300 ms warm-up. *)

(** {1 Test-only} *)

val threshold_ms : series -> float
(** Inspection: the figure's threshold as a number, which the run only
    prints. The largest measured delay whose throughput is still within 5 % of
    the zero-delay throughput. *)
