(** Figure 6: integral performance of TENSOR against FRRouting, GoBGP and
    BIRD.

    (a) time to receive and learn N routing updates from one peer;
    (b) time to generate and send N updates to one peer;
    (c) time to send 100 updates each to P peering ASes (update packing);
    (d) memory and CPU versus container count on one host.

    The baselines run as plain speakers with their {!Baseline} profiles;
    TENSOR runs with live replication against a real store (receive:
    synchronous message replication with held ACKs; send: delayed
    sending), so its overhead is measured, not assumed. *)

type impl_point = { impl : string; seconds : float }
type sweep_row = { x : int; values : impl_point list }

val originate_grouped :
  Bgp.Speaker.t ->
  vrf:string ->
  next_hop:Netsim.Addr.t ->
  groups:int ->
  int ->
  unit
(** [originate_grouped spk ~vrf ~next_hop ~groups n] originates [n]
    routes spread over [groups] attribute sets (a fixed-seed draw), one
    originate call per set, in a deterministic order. *)

(** [Receive]: the speaker learns the routes; [Send]: it hands them to
    TCP. *)
type direction = Receive | Send

val time_to_n :
  Sim.Engine.t ->
  slice:Sim.Time.t ->
  t0:Sim.Time.t ->
  direction ->
  Bgp.Speaker.t ->
  int ->
  float
(** Runs the engine in [slice] steps until the speaker has learned (or
    sent) [n] updates, and returns the seconds from [t0] to the last
    one, or [nan] after 10 simulated minutes. The slice decides where
    the clock stops, so each caller keeps its own. *)

val dut_peering :
  Netsim.Network.t ->
  fabric:Netsim.Node.t ->
  dut:Bgp.Speaker.t ->
  dut_addr:Netsim.Addr.t ->
  vrf:string ->
  asn:int ->
  string ->
  Deploy.peer_as * Bgp.Speaker.peer
(** [dut_peering net ~fabric ~dut ~dut_addr ~vrf ~asn name] is one
    peering AS of a many-peer rig: a {!Deploy.speaker_leaf} of AS [asn]
    named [name], waiting passively for the DUT (AS 64900) at
    [dut_addr], and [dut]'s active session to it in [vrf], returned
    second. Neither side is started. *)

val run_receive : ?counts:int list -> unit -> sweep_row list
(** Panel (a): x = number of updates. *)

val run_send : ?counts:int list -> unit -> sweep_row list
(** Panel (b): x = number of updates. *)

val run_multi_peer : ?peer_counts:int list -> unit -> sweep_row list
(** Panel (c): x = number of peers, each announcing 100 routes. *)

type scale_row = { containers : int; memory_gb : float; cpu_pct : float }

val run_scale : ?container_counts:int list -> unit -> scale_row list
(** Panel (d). [container_counts] is a test seam: quick and full runs
    share the paper's sweep, and test_experiments checks linearity on a
    shorter one. *)

val print_receive : sweep_row list -> unit
val print_send : sweep_row list -> unit
val print_multi_peer : sweep_row list -> unit
val print_scale : scale_row list -> unit
